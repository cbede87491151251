//! Error and source-position types for the XML parser.

use std::fmt;

/// A 1-based line/column position inside the parsed source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Position {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number, counted in characters (Unicode scalar
    /// values) within the line: a multi-byte character such as `é`
    /// advances it by one, not by its UTF-8 length.
    pub column: u32,
}

impl Position {
    /// The start of the document.
    pub const START: Position = Position { line: 1, column: 1 };
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Everything that can go wrong while parsing an XML document.
///
/// Every variant carries the [`Position`] at which the problem was
/// detected so DGL authors get actionable diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// The input ended in the middle of a construct.
    UnexpectedEof { pos: Position, context: &'static str },
    /// A character that cannot start or continue the current construct.
    UnexpectedChar { pos: Position, found: char, expected: &'static str },
    /// `</b>` closed an element opened as `<a>`.
    MismatchedTag { pos: Position, open: String, close: String },
    /// The same attribute appeared twice on one element.
    DuplicateAttribute { pos: Position, name: String },
    /// An entity reference we do not recognise (`&foo;`).
    UnknownEntity { pos: Position, entity: String },
    /// A numeric character reference that is not a valid scalar value.
    InvalidCharRef { pos: Position, raw: String },
    /// Content found after the document element closed.
    TrailingContent { pos: Position },
    /// The document contained no root element at all.
    NoRootElement,
    /// A construct we intentionally refuse (DOCTYPE, PIs, ...).
    Unsupported { pos: Position, what: &'static str },
    /// An element or attribute name that is not a valid XML name.
    InvalidName { pos: Position, name: String },
}

impl XmlError {
    /// The position at which the error was detected, when one exists.
    pub fn position(&self) -> Option<Position> {
        match self {
            XmlError::UnexpectedEof { pos, .. }
            | XmlError::UnexpectedChar { pos, .. }
            | XmlError::MismatchedTag { pos, .. }
            | XmlError::DuplicateAttribute { pos, .. }
            | XmlError::UnknownEntity { pos, .. }
            | XmlError::InvalidCharRef { pos, .. }
            | XmlError::TrailingContent { pos }
            | XmlError::Unsupported { pos, .. }
            | XmlError::InvalidName { pos, .. } => Some(*pos),
            XmlError::NoRootElement => None,
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { pos, context } => {
                write!(f, "{pos}: unexpected end of input while parsing {context}")
            }
            XmlError::UnexpectedChar { pos, found, expected } => {
                write!(f, "{pos}: unexpected character {found:?}, expected {expected}")
            }
            XmlError::MismatchedTag { pos, open, close } => {
                write!(f, "{pos}: closing tag </{close}> does not match <{open}>")
            }
            XmlError::DuplicateAttribute { pos, name } => {
                write!(f, "{pos}: duplicate attribute {name:?}")
            }
            XmlError::UnknownEntity { pos, entity } => {
                write!(f, "{pos}: unknown entity reference &{entity};")
            }
            XmlError::InvalidCharRef { pos, raw } => {
                write!(f, "{pos}: invalid character reference &#{raw};")
            }
            XmlError::TrailingContent { pos } => {
                write!(f, "{pos}: content after the document element")
            }
            XmlError::NoRootElement => write!(f, "document contains no root element"),
            XmlError::Unsupported { pos, what } => {
                write!(f, "{pos}: unsupported XML construct: {what}")
            }
            XmlError::InvalidName { pos, name } => {
                write!(f, "{pos}: invalid XML name {name:?}")
            }
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_displays_as_line_colon_column() {
        let p = Position { line: 3, column: 14 };
        assert_eq!(p.to_string(), "3:14");
    }

    #[test]
    fn errors_carry_positions() {
        let e = XmlError::TrailingContent { pos: Position { line: 2, column: 5 } };
        assert_eq!(e.position(), Some(Position { line: 2, column: 5 }));
        assert_eq!(XmlError::NoRootElement.position(), None);
    }

    #[test]
    fn display_is_human_readable() {
        let e = XmlError::MismatchedTag {
            pos: Position::START,
            open: "flow".into(),
            close: "step".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("</step>"), "{msg}");
        assert!(msg.contains("<flow>"), "{msg}");
    }
}
