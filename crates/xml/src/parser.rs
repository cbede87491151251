//! A recursive-descent parser for the XML subset described in the crate docs.

use crate::error::{Position, XmlError};
use crate::escape::unescape_at;
use crate::tree::{Element, Node};

/// Maximum element nesting depth. The parser is recursive-descent; a
/// hostile document with unbounded nesting must not blow the stack —
/// even a 2 MB test-thread stack only fits a few hundred debug frames.
/// Real DGL documents nest a handful of levels.
pub const MAX_DEPTH: usize = 200;

/// Parse a complete XML document into its root element.
///
/// Leading/trailing whitespace, comments, and one XML declaration are
/// allowed around the root; anything else is an error.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    let root = match p.peek() {
        Some('<') => p.parse_element()?,
        Some(c) => {
            return Err(XmlError::UnexpectedChar { pos: p.pos(), found: c, expected: "'<' starting the root element" })
        }
        None => return Err(XmlError::NoRootElement),
    };
    p.skip_misc()?;
    if let Some(c) = p.peek() {
        let _ = c;
        return Err(XmlError::TrailingContent { pos: p.pos() });
    }
    Ok(root)
}

/// Parse a sequence of sibling root elements (used by test corpora that
/// concatenate several DGL documents in one file).
pub fn parse_all(input: &str) -> Result<Vec<Element>, XmlError> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    let mut out = Vec::new();
    loop {
        match p.peek() {
            Some('<') => out.push(p.parse_element()?),
            Some(c) => {
                return Err(XmlError::UnexpectedChar { pos: p.pos(), found: c, expected: "'<' or end of input" })
            }
            None => break,
        }
        p.skip_misc()?;
    }
    if out.is_empty() {
        return Err(XmlError::NoRootElement);
    }
    Ok(out)
}

struct Parser<'a> {
    input: &'a str,
    offset: usize,
    line: u32,
    col: u32,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, offset: 0, line: 1, col: 1, depth: 0 }
    }

    fn pos(&self) -> Position {
        Position { line: self.line, column: self.col }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.offset..].chars().next()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.offset..].starts_with(s)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.offset += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn bump_str(&mut self, s: &str) {
        debug_assert!(self.starts_with(s));
        for _ in s.chars() {
            self.bump();
        }
    }

    fn expect(&mut self, c: char, expected: &'static str) -> Result<(), XmlError> {
        match self.peek() {
            Some(found) if found == c => {
                self.bump();
                Ok(())
            }
            Some(found) => Err(XmlError::UnexpectedChar { pos: self.pos(), found, expected }),
            None => Err(XmlError::UnexpectedEof { pos: self.pos(), context: expected }),
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
            self.bump();
        }
    }

    /// Skip whitespace and comments between top-level constructs.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                self.parse_comment()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip the XML declaration (if present), whitespace, and comments.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_whitespace();
        if self.starts_with("<?xml") {
            // Consume up to the closing "?>".
            let pos = self.pos();
            self.bump_str("<?xml");
            loop {
                if self.starts_with("?>") {
                    self.bump_str("?>");
                    break;
                }
                if self.bump().is_none() {
                    return Err(XmlError::UnexpectedEof { pos, context: "XML declaration" });
                }
            }
        }
        self.skip_misc()?;
        if self.starts_with("<!DOCTYPE") {
            return Err(XmlError::Unsupported { pos: self.pos(), what: "DOCTYPE declaration" });
        }
        if self.starts_with("<?") {
            return Err(XmlError::Unsupported { pos: self.pos(), what: "processing instruction" });
        }
        Ok(())
    }

    fn is_name_start(c: char) -> bool {
        c.is_alphabetic() || c == '_' || c == ':'
    }

    fn is_name_char(c: char) -> bool {
        Self::is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.offset;
        match self.peek() {
            Some(c) if Self::is_name_start(c) => {
                self.bump();
            }
            Some(c) => {
                return Err(XmlError::UnexpectedChar { pos: self.pos(), found: c, expected: "an XML name" })
            }
            None => return Err(XmlError::UnexpectedEof { pos: self.pos(), context: "an XML name" }),
        }
        while matches!(self.peek(), Some(c) if Self::is_name_char(c)) {
            self.bump();
        }
        Ok(self.input[start..self.offset].to_owned())
    }

    fn parse_comment(&mut self) -> Result<Node, XmlError> {
        let pos = self.pos();
        self.bump_str("<!--");
        let start = self.offset;
        loop {
            if self.starts_with("-->") {
                let text = self.input[start..self.offset].to_owned();
                self.bump_str("-->");
                return Ok(Node::Comment(text));
            }
            if self.bump().is_none() {
                return Err(XmlError::UnexpectedEof { pos, context: "comment" });
            }
        }
    }

    fn parse_cdata(&mut self) -> Result<Node, XmlError> {
        let pos = self.pos();
        self.bump_str("<![CDATA[");
        let start = self.offset;
        loop {
            if self.starts_with("]]>") {
                let text = self.input[start..self.offset].to_owned();
                self.bump_str("]]>");
                return Ok(Node::Text(text));
            }
            if self.bump().is_none() {
                return Err(XmlError::UnexpectedEof { pos, context: "CDATA section" });
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => q,
            Some(found) => {
                return Err(XmlError::UnexpectedChar { pos: self.pos(), found, expected: "a quoted attribute value" })
            }
            None => return Err(XmlError::UnexpectedEof { pos: self.pos(), context: "attribute value" }),
        };
        let open_pos = self.pos();
        self.bump();
        let start = self.offset;
        loop {
            match self.peek() {
                Some(c) if c == quote => {
                    let raw = &self.input[start..self.offset];
                    self.bump();
                    return unescape_at(raw, open_pos);
                }
                Some('<') => {
                    return Err(XmlError::UnexpectedChar { pos: self.pos(), found: '<', expected: "attribute value content ('<' is illegal)" })
                }
                Some(_) => {
                    self.bump();
                }
                None => return Err(XmlError::UnexpectedEof { pos: open_pos, context: "attribute value" }),
            }
        }
    }

    fn parse_element(&mut self) -> Result<Element, XmlError> {
        let open_pos = self.pos();
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(XmlError::Unsupported { pos: open_pos, what: "nesting deeper than MAX_DEPTH elements" });
        }
        let result = self.parse_element_inner(open_pos);
        self.depth -= 1;
        result
    }

    fn parse_element_inner(&mut self, open_pos: Position) -> Result<Element, XmlError> {
        self.expect('<', "'<'")?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('>') => {
                    self.bump();
                    break;
                }
                Some('/') => {
                    self.bump();
                    self.expect('>', "'>' after '/'")?;
                    return Ok(element);
                }
                Some(c) if Self::is_name_start(c) => {
                    let attr_pos = self.pos();
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect('=', "'=' after attribute name")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    if element.attr(&attr_name).is_some() {
                        return Err(XmlError::DuplicateAttribute { pos: attr_pos, name: attr_name });
                    }
                    element.attributes.push((attr_name, value));
                }
                Some(found) => {
                    return Err(XmlError::UnexpectedChar { pos: self.pos(), found, expected: "attribute, '>' or '/>'" })
                }
                None => {
                    return Err(XmlError::UnexpectedEof { pos: open_pos, context: "start tag" })
                }
            }
        }

        // Children until the matching close tag.
        loop {
            if self.starts_with("</") {
                let close_pos = self.pos();
                self.bump_str("</");
                let close_name = self.parse_name()?;
                self.skip_whitespace();
                self.expect('>', "'>' closing an end tag")?;
                if close_name != element.name {
                    return Err(XmlError::MismatchedTag { pos: close_pos, open: element.name, close: close_name });
                }
                return Ok(element);
            }
            if self.starts_with("<!--") {
                element.children.push(self.parse_comment()?);
                continue;
            }
            if self.starts_with("<![CDATA[") {
                element.children.push(self.parse_cdata()?);
                continue;
            }
            if self.starts_with("<!") || self.starts_with("<?") {
                return Err(XmlError::Unsupported { pos: self.pos(), what: "markup declaration inside content" });
            }
            match self.peek() {
                Some('<') => {
                    let child = self.parse_element()?;
                    element.children.push(Node::Element(child));
                }
                Some(_) => {
                    let text_pos = self.pos();
                    let start = self.offset;
                    while let Some(c) = self.peek() {
                        if c == '<' {
                            break;
                        }
                        self.bump();
                    }
                    let raw = &self.input[start..self.offset];
                    let text = unescape_at(raw, text_pos)?;
                    // Whitespace-only runs between elements are formatting,
                    // not data: dropping them makes pretty/compact output
                    // structurally identical, which DGL round-trip tests rely on.
                    if !text.trim().is_empty() {
                        element.children.push(Node::Text(text));
                    }
                }
                None => {
                    return Err(XmlError::UnexpectedEof { pos: open_pos, context: "element content" })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements_and_attributes() {
        let doc = parse(r#"<a x="1" y='two'><b/><c>text</c></a>"#).unwrap();
        assert_eq!(doc.name, "a");
        assert_eq!(doc.attr("x"), Some("1"));
        assert_eq!(doc.attr("y"), Some("two"));
        assert_eq!(doc.child("c").unwrap().text(), "text");
        assert!(doc.child("b").unwrap().is_empty());
    }

    #[test]
    fn accepts_declaration_comments_and_whitespace() {
        let doc = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- dgl -->\n<flow/>\n<!-- after -->\n").unwrap();
        assert_eq!(doc.name, "flow");
    }

    #[test]
    fn expands_entities_in_text_and_attributes() {
        let doc = parse(r#"<s cond="a &lt; b &amp;&amp; c">x &gt; y</s>"#).unwrap();
        assert_eq!(doc.attr("cond"), Some("a < b && c"));
        assert_eq!(doc.text(), "x > y");
    }

    #[test]
    fn cdata_is_verbatim_text() {
        let doc = parse("<s><![CDATA[a < b && <tag>]]></s>").unwrap();
        assert_eq!(doc.text(), "a < b && <tag>");
    }

    #[test]
    fn comments_are_preserved_as_children() {
        let doc = parse("<f><!-- keep me --><g/></f>").unwrap();
        assert!(matches!(&doc.children[0], Node::Comment(c) if c.trim() == "keep me"));
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let doc = parse("<f>\n  <g/>\n  <h/>\n</f>").unwrap();
        assert_eq!(doc.children.len(), 2);
    }

    #[test]
    fn mixed_content_text_is_kept() {
        let doc = parse("<f>hello <g/> world</f>").unwrap();
        assert_eq!(doc.children.len(), 3);
        assert_eq!(doc.children[0].as_text(), Some("hello "));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { open, close, .. } if open == "b" && close == "a"));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        assert!(matches!(parse(r#"<a x="1" x="2"/>"#), Err(XmlError::DuplicateAttribute { name, .. }) if name == "x"));
    }

    #[test]
    fn rejects_doctype_and_pi() {
        assert!(matches!(parse("<!DOCTYPE html><a/>"), Err(XmlError::Unsupported { .. })));
        assert!(matches!(parse("<?php ?><a/>"), Err(XmlError::Unsupported { .. })));
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(matches!(parse("<a/>junk"), Err(XmlError::TrailingContent { .. })));
        assert!(matches!(parse("<a/><b/>"), Err(XmlError::TrailingContent { .. })));
    }

    #[test]
    fn rejects_empty_and_truncated_documents() {
        assert!(matches!(parse(""), Err(XmlError::NoRootElement)));
        assert!(matches!(parse("   \n "), Err(XmlError::NoRootElement)));
        assert!(matches!(parse("<a><b>"), Err(XmlError::UnexpectedEof { .. })));
        assert!(matches!(parse("<a"), Err(XmlError::UnexpectedEof { .. })));
    }

    #[test]
    fn rejects_raw_angle_in_attribute() {
        assert!(matches!(parse("<a x=\"<\"/>"), Err(XmlError::UnexpectedChar { .. })));
    }

    #[test]
    fn parse_all_reads_sibling_roots() {
        let docs = parse_all("<a/> <b/> <!-- x --> <c/>").unwrap();
        assert_eq!(docs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(), ["a", "b", "c"]);
        assert!(matches!(parse_all("  "), Err(XmlError::NoRootElement)));
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let err = parse("<a>\n  <b x='1' x='2'/>\n</a>").unwrap_err();
        let pos = err.position().unwrap();
        assert_eq!(pos.line, 2);
        assert!(pos.column > 1);
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `é` is two bytes of UTF-8 but one column.
        let ascii = parse("<a>x</b>").unwrap_err().position().unwrap();
        let accented = parse("<a>é</b>").unwrap_err().position().unwrap();
        assert_eq!(accented, ascii);
        assert!(ascii.column > 1);
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        let deep = format!("{}{}", "<a>".repeat(100_000), "</a>".repeat(100_000));
        assert!(matches!(parse(&deep), Err(XmlError::Unsupported { .. })));
        // Depth inside the limit parses fine.
        let ok = format!("{}{}", "<a>".repeat(100), "</a>".repeat(100));
        assert_eq!(parse(&ok).unwrap().depth(), 100);
    }

    #[test]
    fn unicode_content_survives() {
        let doc = parse("<f name='données'>päivä \u{2603}</f>").unwrap();
        assert_eq!(doc.attr("name"), Some("données"));
        assert_eq!(doc.text(), "päivä \u{2603}");
    }
}
