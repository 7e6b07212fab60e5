//! must_use_api fixture: pub fns returning `Self` or a `*Builder` by
//! value need #[must_use] unless clippy's return_self_not_must_use sees
//! them (a `self` receiver returning its own type). References, Results,
//! opaque returns, annotated fns and types, and allowed sites do not.

pub struct RunBuilder {
    k: usize,
}

impl RunBuilder {
    pub fn new() -> Self {
        RunBuilder { k: 0 }
    }

    pub fn k(self, k: usize) -> Self {
        RunBuilder { k }
    }

    #[must_use]
    pub const fn empty() -> Self {
        RunBuilder { k: 0 }
    }

    pub fn other(&self) -> OtherBuilder {
        OtherBuilder
    }

    pub fn peek(&self) -> &Self {
        self
    }

    pub fn build(self) -> Result<usize, String> {
        Ok(self.k)
    }

    pub fn iter(&self) -> impl Iterator<Item = RunBuilder> {
        std::iter::empty()
    }
}

#[must_use]
pub struct AnnotatedBuilder;

impl AnnotatedBuilder {
    pub fn new() -> Self {
        AnnotatedBuilder
    }
}

pub struct OtherBuilder;

impl OtherBuilder {
    // xtask: allow(must_use_api) -- fixture: suppressed constructor
    pub fn new() -> Self {
        OtherBuilder
    }
}

pub fn make_builder() -> RunBuilder {
    RunBuilder { k: 0 }
}

#[cfg(test)]
mod test {
    pub fn helper() -> super::RunBuilder {
        super::RunBuilder::new()
    }
}
