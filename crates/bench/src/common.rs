//! Shared CLI plumbing for the figure binaries.

use std::collections::HashMap;

/// Tiny `--key value` argument parser (no external deps).
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`. A `--flag` followed by another
    /// `--option` (or nothing) is a bare switch and reads as `"true"`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut map = HashMap::new();
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next().expect("peeked value"),
                    _ => "true".into(),
                };
                map.insert(key.to_string(), value);
            }
        }
        Args { map }
    }

    /// Typed lookup with default. A value that does not parse as `T`
    /// prints the flag and the value to stderr and exits with status 2.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }
}

/// Worker-thread count for parallel sweeps.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Standard figure banner.
pub fn banner(fig: &str, what: &str) {
    println!("==================================================================");
    println!("{fig}: {what}");
    println!("==================================================================");
}

#[cfg(test)]
mod test {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::from_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unparseable_values_are_errors_not_defaults() {
        let a = args(&["--pairs", "abc", "--packets", "48", "--quick"]);
        assert_eq!(
            a.try_get("pairs", 60usize),
            Err("invalid value for --pairs: \"abc\"".to_string())
        );
        assert_eq!(a.try_get("packets", 192usize), Ok(48));
        assert_eq!(a.try_get("seed", 1u64), Ok(1));
        assert_eq!(a.try_get("quick", false), Ok(true));
        assert!(a.try_get("quick", 0usize).is_err());
    }
}
