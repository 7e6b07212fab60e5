//! pool_pairing fixture: an acquire with no release path fires; a
//! paired sibling method, a Drop-based release, a paired free fn, and a
//! documented ownership transfer do not.

pub struct Leaky;

impl Leaky {
    pub fn grab(&mut self) {
        let b = pool::acquire(8);
        core::mem::forget(b);
    }
}

pub struct Paired;

impl Paired {
    pub fn grab(&mut self) -> Buf {
        pool::acquire(8)
    }

    pub fn done(&mut self, b: Buf) {
        pool::release(b);
    }
}

pub struct Guard {
    buf: Option<Buf>,
}

impl Guard {
    pub fn grab(&mut self) {
        self.buf = Some(pool::acquire(8));
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(b) = self.buf.take() {
            pool::release(b);
        }
    }
}

pub struct Transfer;

impl Transfer {
    pub fn grab(&mut self) -> Buf {
        // xtask: allow(pool_pairing) -- fixture: ownership transfer documented
        pool::acquire(8)
    }
}

pub fn free_fn_paired() {
    let b = pool::acquire_vec(8);
    pool::release_vec(b);
}
