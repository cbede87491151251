//! Lexically nested variable scopes.
//!
//! "Each flow is like a block of code in modern programming languages
//! with its own variable scope" (paper, §4). A child flow sees — and may
//! assign — variables of its ancestors, but its own declarations vanish
//! when it exits.

#![expect(
    clippy::disallowed_types,
    reason = "keyed lookup only: every read goes through `get(name)` and the only iteration is over the `Vec` of frames, so hash order cannot reach replay"
)]

use crate::value::Value;
use std::collections::HashMap;

/// A chain of variable frames. The engine pushes a frame per flow entry
/// and pops it on exit.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    frames: Vec<HashMap<String, Value>>,
}

impl Scope {
    /// A scope with a single (global) frame.
    pub fn root() -> Self {
        Scope { frames: vec![HashMap::new()] }
    }

    /// Enter a nested block.
    pub fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    /// Leave the innermost block, discarding its declarations.
    ///
    /// # Panics
    /// If this would pop the root frame — an engine bug, not user error.
    pub fn pop(&mut self) {
        assert!(self.frames.len() > 1, "cannot pop the root scope frame");
        self.frames.pop();
    }

    /// Current nesting depth (root = 1).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Declare (or shadow) a variable in the innermost frame.
    pub fn declare(&mut self, name: impl Into<String>, value: Value) {
        self.frames.last_mut().expect("scope always has a root frame").insert(name.into(), value);
    }

    /// Assign to an existing variable in the nearest frame declaring it;
    /// falls back to declaring in the innermost frame if none does.
    pub fn assign(&mut self, name: &str, value: Value) {
        for frame in self.frames.iter_mut().rev() {
            if let Some(slot) = frame.get_mut(name) {
                *slot = value;
                return;
            }
        }
        self.declare(name, value);
    }

    /// Read a variable, searching inner frames first.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }

    /// Whether the variable is visible.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_frames_shadow_outer() {
        let mut s = Scope::root();
        s.declare("x", Value::Int(1));
        s.push();
        s.declare("x", Value::Int(2));
        assert_eq!(s.get("x"), Some(&Value::Int(2)));
        s.pop();
        assert_eq!(s.get("x"), Some(&Value::Int(1)), "shadow removed on exit");
    }

    #[test]
    fn assign_updates_the_declaring_frame() {
        let mut s = Scope::root();
        s.declare("counter", Value::Int(0));
        s.push();
        s.assign("counter", Value::Int(5)); // inner block mutates outer var
        s.pop();
        assert_eq!(s.get("counter"), Some(&Value::Int(5)));
    }

    #[test]
    fn assign_without_declaration_lands_in_innermost() {
        let mut s = Scope::root();
        s.push();
        s.assign("tmp", Value::Bool(true));
        assert!(s.contains("tmp"));
        s.pop();
        assert!(!s.contains("tmp"), "implicit declaration was block-local");
    }

    #[test]
    #[should_panic(expected = "root scope")]
    fn popping_root_is_a_bug() {
        Scope::root().pop();
    }

    #[test]
    fn depth_tracks_nesting() {
        let mut s = Scope::root();
        assert_eq!(s.depth(), 1);
        s.push();
        s.push();
        assert_eq!(s.depth(), 3);
    }
}
