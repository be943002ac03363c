//! Cheap, clonable identifiers for program inputs.
//!
//! Expressions are cloned heavily during rewriting, so symbols are backed by a
//! reference-counted string slice rather than an owned [`String`].

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An identifier naming a program input (ciphertext or plaintext variable).
///
/// `Symbol` is a thin wrapper around `Arc<str>`: cloning is O(1) and
/// comparisons are by string value.
///
/// # Examples
///
/// ```
/// use chehab_ir::Symbol;
///
/// let a = Symbol::new("v1");
/// let b: Symbol = "v1".into();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "v1");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates a symbol from anything string-like.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(Arc::from(name.as_ref()))
    }

    /// Returns the symbol's textual name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(s)
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_is_by_value() {
        assert_eq!(Symbol::new("x"), Symbol::new("x"));
        assert_ne!(Symbol::new("x"), Symbol::new("y"));
    }

    #[test]
    fn usable_as_hash_key_via_str_borrow() {
        let mut set = HashSet::new();
        set.insert(Symbol::new("a"));
        assert!(set.contains("a"));
        assert!(!set.contains("b"));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let s = Symbol::new("v0");
        assert_eq!(s.to_string(), "v0");
        assert!(format!("{s:?}").contains("v0"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Symbol::new("a") < Symbol::new("b"));
    }
}
