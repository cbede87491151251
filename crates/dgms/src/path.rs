//! Logical namespace paths (`/home/sdsc/scec/run42/ground.dat`).

use crate::error::DgmsError;
use std::fmt;

/// An absolute, normalized path in the datagrid's logical namespace.
///
/// Invariants (enforced at construction):
/// * always absolute (`/...`), `/` being the namespace root,
/// * no empty segments, no `.` or `..` segments,
/// * segments never contain `/` or control characters.
///
/// Ordering compares the normalized path bytes with `/` ranked below
/// every other byte. That is exactly segment-wise order: no segment
/// holds `/` or a control character, so a `/` at the first difference
/// means "this segment ended" and sorts first, as does a path that ends
/// first. It keeps every subtree a contiguous range in ordered maps:
/// `/a`'s descendants sort between `/a` and any sibling, even siblings
/// like `/a!b` whose next byte is below `/` in plain string order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicalPath {
    // Stored normalized, without a trailing slash (root is "").
    inner: String,
}

impl Ord for LogicalPath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = (self.inner.as_bytes(), other.inner.as_bytes());
        match a.iter().zip(b).position(|(x, y)| x != y) {
            Some(i) => rank(a[i]).cmp(&rank(b[i])),
            None => a.len().cmp(&b.len()),
        }
    }
}

/// A path byte's rank in [`LogicalPath`] order: the separator sorts
/// below every byte a segment can hold (segments hold no control
/// characters, so none of them is 0).
fn rank(byte: u8) -> u8 {
    if byte == b'/' {
        0
    } else {
        byte
    }
}

impl PartialOrd for LogicalPath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl LogicalPath {
    /// The namespace root (`/`).
    pub fn root() -> Self {
        LogicalPath { inner: String::new() }
    }

    /// Parse and validate a path string.
    pub fn parse(s: &str) -> Result<Self, DgmsError> {
        if !s.starts_with('/') {
            return Err(DgmsError::InvalidPath { path: s.to_owned(), reason: "must be absolute" });
        }
        let mut inner = String::with_capacity(s.len());
        for segment in s.split('/').filter(|seg| !seg.is_empty()) {
            Self::validate_segment(segment).map_err(|reason| DgmsError::InvalidPath { path: s.to_owned(), reason })?;
            inner.push('/');
            inner.push_str(segment);
        }
        Ok(LogicalPath { inner })
    }

    fn validate_segment(segment: &str) -> Result<(), &'static str> {
        if segment == "." || segment == ".." {
            return Err("relative segments are not allowed");
        }
        if segment.chars().any(|c| c.is_control()) {
            return Err("control characters are not allowed");
        }
        Ok(())
    }

    /// Append one segment.
    pub fn join(&self, segment: &str) -> Result<Self, DgmsError> {
        if segment.is_empty() || segment.contains('/') {
            return Err(DgmsError::InvalidPath { path: segment.to_owned(), reason: "join takes a single non-empty segment" });
        }
        Self::validate_segment(segment).map_err(|reason| DgmsError::InvalidPath { path: segment.to_owned(), reason })?;
        let mut inner = self.inner.clone();
        inner.push('/');
        inner.push_str(segment);
        Ok(LogicalPath { inner })
    }

    /// The parent collection; `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        if self.inner.is_empty() {
            return None;
        }
        let cut = self.inner.rfind('/').expect("non-root paths contain '/'");
        Some(LogicalPath { inner: self.inner[..cut].to_owned() })
    }

    /// The final segment; `None` for the root.
    pub fn name(&self) -> Option<&str> {
        if self.inner.is_empty() {
            return None;
        }
        self.inner.rsplit('/').next()
    }

    /// True if `self` is the root.
    pub fn is_root(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of segments (root = 0).
    pub fn depth(&self) -> usize {
        if self.inner.is_empty() {
            0
        } else {
            self.inner.matches('/').count()
        }
    }

    /// True if `self == other` or `other` is an ancestor of `self`.
    pub fn is_under(&self, other: &LogicalPath) -> bool {
        if other.is_root() {
            return true;
        }
        self.inner == other.inner
            || (self.inner.starts_with(&other.inner)
                && self.inner.as_bytes().get(other.inner.len()) == Some(&b'/'))
    }

    /// Iterate over segments.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.inner.split('/').filter(|s| !s.is_empty())
    }
}

impl fmt::Display for LogicalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inner.is_empty() {
            f.write_str("/")
        } else {
            f.write_str(&self.inner)
        }
    }
}

impl std::str::FromStr for LogicalPath {
    type Err = DgmsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        let p = LogicalPath::parse("/home//sdsc/scec/").unwrap();
        assert_eq!(p.to_string(), "/home/sdsc/scec");
        assert_eq!(p.depth(), 3);
        assert_eq!(p.name(), Some("scec"));
    }

    #[test]
    fn root_special_cases() {
        let r = LogicalPath::parse("/").unwrap();
        assert!(r.is_root());
        assert_eq!(r, LogicalPath::root());
        assert_eq!(r.to_string(), "/");
        assert_eq!(r.depth(), 0);
        assert!(r.parent().is_none());
        assert!(r.name().is_none());
    }

    #[test]
    fn rejects_bad_paths() {
        assert!(LogicalPath::parse("relative/x").is_err());
        assert!(LogicalPath::parse("/a/../b").is_err());
        assert!(LogicalPath::parse("/a/./b").is_err());
        assert!(LogicalPath::parse("/a/b\u{0}c").is_err());
    }

    #[test]
    fn join_and_parent_are_inverse() {
        let base = LogicalPath::parse("/home/sdsc").unwrap();
        let child = base.join("file.dat").unwrap();
        assert_eq!(child.to_string(), "/home/sdsc/file.dat");
        assert_eq!(child.parent().unwrap(), base);
        assert!(base.join("a/b").is_err());
        assert!(base.join("").is_err());
        assert!(base.join("..").is_err());
    }

    #[test]
    fn is_under_checks_prefixes_on_segment_boundaries() {
        let a = LogicalPath::parse("/home/sdsc").unwrap();
        let b = LogicalPath::parse("/home/sdsc/scec/x").unwrap();
        let c = LogicalPath::parse("/home/sdsc2").unwrap();
        assert!(b.is_under(&a));
        assert!(a.is_under(&a));
        assert!(!c.is_under(&a), "sibling with common string prefix is not under");
        assert!(!a.is_under(&b));
        assert!(a.is_under(&LogicalPath::root()));
    }

    #[test]
    fn segments_iterate_in_order() {
        let p = LogicalPath::parse("/a/b/c").unwrap();
        assert_eq!(p.segments().collect::<Vec<_>>(), ["a", "b", "c"]);
    }

    #[test]
    fn ordering_keeps_subtrees_contiguous() {
        // "!" (0x21) sorts below "/" (0x2f) as a byte, which is exactly
        // the case plain string ordering gets wrong.
        let parent = LogicalPath::parse("/a").unwrap();
        let child = LogicalPath::parse("/a/b").unwrap();
        let tricky_sibling = LogicalPath::parse("/a!x").unwrap();
        assert!(parent < child);
        assert!(child < tricky_sibling, "descendants sort before segment-wise-larger siblings");
        assert!(LogicalPath::root() < parent);
    }
}
