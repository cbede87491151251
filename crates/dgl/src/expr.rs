//! The Tcondition expression language.
//!
//! Appendix A: "Tcondition is a usually simple string that is evaluated.
//! It is possible to use DGL variables in the Tcondition." We give that
//! string a precise grammar:
//!
//! ```text
//! expr    := or
//! or      := and ( "||" and )*
//! and     := cmp ( "&&" cmp )*
//! cmp     := add ( ("=="|"!="|"<="|">="|"<"|">") add )?
//! add     := mul ( ("+"|"-") mul )*
//! mul     := unary ( ("*"|"/"|"%") unary )*
//! unary   := ("!"|"-") unary | primary
//! primary := int | float | 'string' | "string" | true | false
//!          | identifier | "(" expr ")"
//! ```
//!
//! Identifiers read DGL variables from the enclosing [`Scope`]; `+`
//! concatenates when either operand is a string.

use crate::error::DglError;
use crate::scope::Scope;
use crate::value::Value;
use std::fmt;

/// A parsed Tcondition. Keeps its source text for serialization back
/// into DGL documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    source: String,
    ast: Node,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Literal(Value),
    Var(String),
    Unary(UnaryOp, Box<Node>),
    Binary(BinaryOp, Box<Node>, Box<Node>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnaryOp {
    Not,
    Neg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinaryOp {
    Or,
    And,
    Eq,
    Ne,
    Le,
    Ge,
    Lt,
    Gt,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

impl Expr {
    /// Parse a Tcondition string.
    pub fn parse(source: &str) -> Result<Self, DglError> {
        let tokens = lex(source)?;
        let mut p = Parser { tokens, pos: 0, source, depth: 0, operators: 0 };
        let parsed = p.parse_or();
        if p.operators > MAX_EXPR_OPERATORS {
            return Err(p.err(format!("more than {MAX_EXPR_OPERATORS} binary operators")));
        }
        let ast = parsed?;
        if p.pos != p.tokens.len() {
            return Err(DglError::ExprParse {
                expr: source.to_owned(),
                reason: format!("unexpected trailing token {:?}", p.tokens[p.pos]),
            });
        }
        Ok(Expr { source: source.to_owned(), ast })
    }

    /// A literal `true` expression (the default rule guard).
    pub fn always() -> Self {
        Expr { source: "true".to_owned(), ast: Node::Literal(Value::Bool(true)) }
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Evaluate against a scope.
    pub fn eval(&self, scope: &Scope) -> Result<Value, DglError> {
        self.eval_node(&self.ast, scope)
    }

    /// Every DGL variable this expression reads, in first-occurrence
    /// order, deduplicated. Static analyzers use this to check that all
    /// references resolve before a flow ever runs.
    pub fn referenced_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        collect_vars(&self.ast, &mut out);
        out
    }

    /// Evaluate and coerce to a boolean via truthiness.
    pub fn eval_bool(&self, scope: &Scope) -> Result<bool, DglError> {
        Ok(self.eval(scope)?.truthy())
    }

    fn err(&self, reason: impl Into<String>) -> DglError {
        DglError::ExprEval { expr: self.source.clone(), reason: reason.into() }
    }

    fn eval_node(&self, node: &Node, scope: &Scope) -> Result<Value, DglError> {
        match node {
            Node::Literal(v) => Ok(v.clone()),
            Node::Var(name) => scope
                .get(name)
                .cloned()
                .ok_or_else(|| DglError::UnknownVariable(name.clone())),
            Node::Unary(op, inner) => {
                let v = self.eval_node(inner, scope)?;
                match op {
                    UnaryOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnaryOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(self.err(format!("cannot negate a {}", other.type_name()))),
                    },
                }
            }
            Node::Binary(op, l, r) => {
                // Short-circuit logic first.
                match op {
                    BinaryOp::And => {
                        let lv = self.eval_node(l, scope)?;
                        if !lv.truthy() {
                            return Ok(Value::Bool(false));
                        }
                        return Ok(Value::Bool(self.eval_node(r, scope)?.truthy()));
                    }
                    BinaryOp::Or => {
                        let lv = self.eval_node(l, scope)?;
                        if lv.truthy() {
                            return Ok(Value::Bool(true));
                        }
                        return Ok(Value::Bool(self.eval_node(r, scope)?.truthy()));
                    }
                    _ => {}
                }
                let lv = self.eval_node(l, scope)?;
                let rv = self.eval_node(r, scope)?;
                self.apply_binary(*op, lv, rv)
            }
        }
    }

    fn apply_binary(&self, op: BinaryOp, l: Value, r: Value) -> Result<Value, DglError> {
        use BinaryOp::*;
        match op {
            Eq => Ok(Value::Bool(l.loosely_equals(&r))),
            Ne => Ok(Value::Bool(!l.loosely_equals(&r))),
            Lt | Le | Gt | Ge => {
                // Numeric comparison when both coerce; string order otherwise.
                let ord = match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => a.partial_cmp(&b),
                    _ => Some(l.to_string().cmp(&r.to_string())),
                }
                .ok_or_else(|| self.err("incomparable values (NaN)"))?;
                let res = match op {
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    Ge => ord.is_ge(),
                    _ => unreachable!(),
                };
                Ok(Value::Bool(res))
            }
            Add => {
                if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) {
                    return Ok(Value::Str(format!("{l}{r}")));
                }
                self.arith(op, l, r)
            }
            Sub | Mul | Div | Rem => self.arith(op, l, r),
            And | Or => unreachable!("handled with short-circuiting"),
        }
    }

    fn arith(&self, op: BinaryOp, l: Value, r: Value) -> Result<Value, DglError> {
        use BinaryOp::*;
        // Integer arithmetic when both sides are integers; float otherwise.
        if let (Some(a), Some(b)) = (int_of(&l), int_of(&r)) {
            return match op {
                Add => Ok(Value::Int(a.wrapping_add(b))),
                Sub => Ok(Value::Int(a.wrapping_sub(b))),
                Mul => Ok(Value::Int(a.wrapping_mul(b))),
                Div => {
                    if b == 0 {
                        Err(self.err("division by zero"))
                    } else {
                        Ok(Value::Int(a / b))
                    }
                }
                Rem => {
                    if b == 0 {
                        Err(self.err("modulo by zero"))
                    } else {
                        Ok(Value::Int(a % b))
                    }
                }
                _ => unreachable!(),
            };
        }
        let a = l.as_f64().ok_or_else(|| self.err(format!("{} is not numeric", l.type_name())))?;
        let b = r.as_f64().ok_or_else(|| self.err(format!("{} is not numeric", r.type_name())))?;
        let out = match op {
            Add => a + b,
            Sub => a - b,
            Mul => a * b,
            Div => {
                if b == 0.0 {
                    return Err(self.err("division by zero"));
                }
                a / b
            }
            Rem => {
                if b == 0.0 {
                    return Err(self.err("modulo by zero"));
                }
                a % b
            }
            _ => unreachable!(),
        };
        Ok(Value::Float(out))
    }
}

fn collect_vars(node: &Node, out: &mut Vec<String>) {
    match node {
        Node::Literal(_) => {}
        Node::Var(name) => {
            if !out.iter().any(|n| n == name) {
                out.push(name.clone());
            }
        }
        Node::Unary(_, inner) => collect_vars(inner, out),
        Node::Binary(_, l, r) => {
            collect_vars(l, out);
            collect_vars(r, out);
        }
    }
}

/// Strict integer view: `Int` only (strings/floats go through the float
/// path so `"3" + 1` stays predictable).
fn int_of(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

// ----------------------------------------------------------------------
// Lexer
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    Op(&'static str),
    LParen,
    RParen,
}

fn lex(src: &str) -> Result<Vec<Token>, DglError> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let err = |reason: String| DglError::ExprParse { expr: src.to_owned(), reason };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != quote {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(err("unterminated string literal".into()));
                }
                tokens.push(Token::Str(src[start..j].to_owned()));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len() && ((bytes[j] as char).is_ascii_digit() || bytes[j] == b'.') {
                    if bytes[j] == b'.' {
                        is_float = true;
                    }
                    j += 1;
                }
                let text = &src[start..j];
                if is_float {
                    tokens.push(Token::Float(text.parse().map_err(|e| err(format!("bad float {text:?}: {e}")))?));
                } else {
                    tokens.push(Token::Int(text.parse().map_err(|e| err(format!("bad int {text:?}: {e}")))?));
                }
                i = j;
            }
            'a'..='z' | 'A'..='Z' | '_' | '$' => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || matches!(bytes[j], b'_' | b'.' | b'$' | b'-'))
                {
                    // Allow '-' inside identifiers only when followed by an
                    // alphanumeric and preceded by one (DGL names like
                    // "document-type"); otherwise it's the minus operator.
                    if bytes[j] == b'-' {
                        let next_ok = j + 1 < bytes.len() && (bytes[j + 1] as char).is_ascii_alphanumeric();
                        if !next_ok {
                            break;
                        }
                    }
                    j += 1;
                }
                let word = &src[start..j];
                tokens.push(Token::Ident(word.to_owned()));
                i = j;
            }
            _ => {
                // Multi-char operators first.
                let two = src.get(i..i + 2).unwrap_or("");
                let op = match two {
                    "&&" | "||" | "==" | "!=" | "<=" | ">=" => Some(match two {
                        "&&" => "&&",
                        "||" => "||",
                        "==" => "==",
                        "!=" => "!=",
                        "<=" => "<=",
                        _ => ">=",
                    }),
                    _ => None,
                };
                if let Some(op) = op {
                    tokens.push(Token::Op(op));
                    i += 2;
                    continue;
                }
                let one = match c {
                    '<' => "<",
                    '>' => ">",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    '%' => "%",
                    '!' => "!",
                    other => return Err(err(format!("unexpected character {other:?}"))),
                };
                tokens.push(Token::Op(one));
                i += 1;
            }
        }
    }
    Ok(tokens)
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

/// Maximum expression nesting (parens / unary chains); guards the
/// recursive-descent parser against hostile wire input.
const MAX_EXPR_DEPTH: usize = 256;

/// Maximum binary operators in one expression. Binary chains such as
/// `1+1+…+1` are parsed in a loop, so [`MAX_EXPR_DEPTH`] does not bound
/// them, yet the left-deep tree they build is as deep as the chain is
/// long, and eval, lint, clone and drop all recurse on it.
const MAX_EXPR_OPERATORS: usize = 256;

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    source: &'a str,
    depth: usize,
    /// Binary operators consumed so far; one past
    /// [`MAX_EXPR_OPERATORS`] once an operator was refused.
    operators: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> DglError {
        DglError::ExprParse { expr: self.source.to_owned(), reason: reason.into() }
    }

    fn peek_op(&self) -> Option<&'static str> {
        match self.tokens.get(self.pos) {
            Some(Token::Op(op)) => Some(op),
            _ => None,
        }
    }

    fn eat_op(&mut self, candidates: &[&'static str]) -> Option<&'static str> {
        if let Some(op) = self.peek_op() {
            if candidates.contains(&op) {
                self.pos += 1;
                return Some(op);
            }
        }
        None
    }

    /// [`Parser::eat_op`] for binary operators, refusing every one past
    /// [`MAX_EXPR_OPERATORS`] so the chain ends there and
    /// [`Expr::parse`] reports the overflow. Not a `Result`, and not a
    /// `?` in the chain loops: that would grow the recursive frames that
    /// deep parenthesis nesting already stacks close to the limit.
    fn eat_binary_op(&mut self, candidates: &[&'static str]) -> Option<&'static str> {
        if self.operators >= MAX_EXPR_OPERATORS {
            if self.peek_op().is_some_and(|op| candidates.contains(&op)) {
                self.operators = MAX_EXPR_OPERATORS + 1;
            }
            return None;
        }
        let op = self.eat_op(candidates)?;
        self.operators += 1;
        Some(op)
    }

    fn parse_or(&mut self) -> Result<Node, DglError> {
        let mut node = self.parse_and()?;
        while self.eat_binary_op(&["||"]).is_some() {
            let rhs = self.parse_and()?;
            node = Node::Binary(BinaryOp::Or, Box::new(node), Box::new(rhs));
        }
        Ok(node)
    }

    fn parse_and(&mut self) -> Result<Node, DglError> {
        let mut node = self.parse_cmp()?;
        while self.eat_binary_op(&["&&"]).is_some() {
            let rhs = self.parse_cmp()?;
            node = Node::Binary(BinaryOp::And, Box::new(node), Box::new(rhs));
        }
        Ok(node)
    }

    fn parse_cmp(&mut self) -> Result<Node, DglError> {
        let node = self.parse_add()?;
        if let Some(op) = self.eat_binary_op(&["==", "!=", "<=", ">=", "<", ">"]) {
            let rhs = self.parse_add()?;
            let bop = match op {
                "==" => BinaryOp::Eq,
                "!=" => BinaryOp::Ne,
                "<=" => BinaryOp::Le,
                ">=" => BinaryOp::Ge,
                "<" => BinaryOp::Lt,
                _ => BinaryOp::Gt,
            };
            return Ok(Node::Binary(bop, Box::new(node), Box::new(rhs)));
        }
        Ok(node)
    }

    fn parse_add(&mut self) -> Result<Node, DglError> {
        let mut node = self.parse_mul()?;
        while let Some(op) = self.eat_binary_op(&["+", "-"]) {
            let rhs = self.parse_mul()?;
            let bop = if op == "+" { BinaryOp::Add } else { BinaryOp::Sub };
            node = Node::Binary(bop, Box::new(node), Box::new(rhs));
        }
        Ok(node)
    }

    fn parse_mul(&mut self) -> Result<Node, DglError> {
        let mut node = self.parse_unary()?;
        while let Some(op) = self.eat_binary_op(&["*", "/", "%"]) {
            let rhs = self.parse_unary()?;
            let bop = match op {
                "*" => BinaryOp::Mul,
                "/" => BinaryOp::Div,
                _ => BinaryOp::Rem,
            };
            node = Node::Binary(bop, Box::new(node), Box::new(rhs));
        }
        Ok(node)
    }

    fn parse_unary(&mut self) -> Result<Node, DglError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(self.err("expression nests too deeply"));
        }
        let result = (|| {
            if self.eat_op(&["!"]).is_some() {
                return Ok(Node::Unary(UnaryOp::Not, Box::new(self.parse_unary()?)));
            }
            if self.eat_op(&["-"]).is_some() {
                return Ok(Node::Unary(UnaryOp::Neg, Box::new(self.parse_unary()?)));
            }
            self.parse_primary()
        })();
        self.depth -= 1;
        result
    }

    fn parse_primary(&mut self) -> Result<Node, DglError> {
        let token = self.tokens.get(self.pos).cloned().ok_or_else(|| self.err("unexpected end of expression"))?;
        self.pos += 1;
        match token {
            Token::Int(i) => Ok(Node::Literal(Value::Int(i))),
            Token::Float(f) => Ok(Node::Literal(Value::Float(f))),
            Token::Str(s) => Ok(Node::Literal(Value::Str(s))),
            Token::Ident(name) => match name.as_str() {
                "true" => Ok(Node::Literal(Value::Bool(true))),
                "false" => Ok(Node::Literal(Value::Bool(false))),
                _ => Ok(Node::Var(name.trim_start_matches('$').to_owned())),
            },
            Token::LParen => {
                let inner = self.parse_or()?;
                match self.tokens.get(self.pos) {
                    Some(Token::RParen) => {
                        self.pos += 1;
                        Ok(inner)
                    }
                    _ => Err(self.err("expected ')'")),
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> Value {
        Expr::parse(src).unwrap().eval(&Scope::root()).unwrap()
    }

    fn eval_with(src: &str, vars: &[(&str, Value)]) -> Value {
        let mut scope = Scope::root();
        for (k, v) in vars {
            scope.declare(*k, v.clone());
        }
        Expr::parse(src).unwrap().eval(&scope).unwrap()
    }

    #[test]
    fn arithmetic_with_precedence() {
        assert_eq!(eval("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval("(1 + 2) * 3"), Value::Int(9));
        assert_eq!(eval("10 / 4"), Value::Int(2), "integer division");
        assert_eq!(eval("10.0 / 4"), Value::Float(2.5));
        assert_eq!(eval("10 % 3"), Value::Int(1));
        assert_eq!(eval("-3 + 1"), Value::Int(-2));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval("1 < 2 && 2 < 3"), Value::Bool(true));
        assert_eq!(eval("1 >= 2 || false"), Value::Bool(false));
        assert_eq!(eval("!(1 == 1)"), Value::Bool(false));
        assert_eq!(eval("'abc' == 'abc'"), Value::Bool(true));
        assert_eq!(eval("'3' == 3"), Value::Bool(true), "loose numeric equality");
        assert_eq!(eval("'b' > 'a'"), Value::Bool(true), "string ordering");
        assert_eq!(eval("1 != 2"), Value::Bool(true));
        assert_eq!(eval("2 <= 2"), Value::Bool(true));
    }

    #[test]
    fn variables_resolve_from_scope() {
        assert_eq!(eval_with("i < n", &[("i", Value::Int(3)), ("n", Value::Int(10))]), Value::Bool(true));
        assert_eq!(
            eval_with("$status == 'done'", &[("status", "done".into())]),
            Value::Bool(true),
            "$-prefixed identifiers also work"
        );
        assert_eq!(
            eval_with("document-type == 'pdf'", &[("document-type", "pdf".into())]),
            Value::Bool(true),
            "hyphenated DGL names"
        );
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(eval("'run' + 42"), Value::Str("run42".into()));
        assert_eq!(eval_with("prefix + '/' + name", &[("prefix", "/home".into()), ("name", "x".into())]), Value::Str("/home/x".into()));
    }

    #[test]
    fn short_circuit_skips_bad_branches() {
        // `missing` is undeclared; short-circuiting must avoid it.
        assert_eq!(eval_with("false && missing", &[]), Value::Bool(false));
        assert_eq!(eval_with("true || missing", &[]), Value::Bool(true));
        assert!(Expr::parse("true && missing").unwrap().eval(&Scope::root()).is_err());
    }

    #[test]
    fn rule_conditions_can_return_action_names() {
        // Appendix A: the condition evaluates to the *name* of the action.
        let v = eval_with(
            "size > 1000000 && 'archive' || 'keep'",
            &[("size", Value::Int(5_000_000))],
        );
        // Our logic ops are boolean, so action dispatch uses a dedicated
        // switch form instead; check the boolean path works.
        assert_eq!(v, Value::Bool(true));
        let name = eval_with("'archive'", &[]);
        assert_eq!(name, Value::Str("archive".into()));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(Expr::parse("1 +").is_err());
        assert!(Expr::parse("(1").is_err());
        assert!(Expr::parse("'unterminated").is_err());
        assert!(Expr::parse("1 ? 2").is_err());
        assert!(Expr::parse("1 2").is_err(), "trailing token");
        assert!(matches!(
            Expr::parse("1/0").unwrap().eval(&Scope::root()),
            Err(DglError::ExprEval { .. })
        ));
        assert!(matches!(
            Expr::parse("x").unwrap().eval(&Scope::root()),
            Err(DglError::UnknownVariable(_))
        ));
        assert!(Expr::parse("-'str'").unwrap().eval(&Scope::root()).is_err());
    }

    #[test]
    fn source_text_round_trips() {
        let e = Expr::parse("i < 10 && name == 'x'").unwrap();
        assert_eq!(e.source(), "i < 10 && name == 'x'");
        assert_eq!(e.to_string(), e.source());
        let reparsed = Expr::parse(e.source()).unwrap();
        assert_eq!(reparsed, e);
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        let parens = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
        assert!(Expr::parse(&parens).is_err());
        let bangs = format!("{}true", "!".repeat(100_000));
        assert!(Expr::parse(&bangs).is_err());
        // Binary chains are parsed in a loop, but build a tree as deep
        // as the chain is long.
        let chain = |op: &str, terms: usize| vec!["1"; terms].join(op);
        for op in ["+", "*", "&&", "||"] {
            let hostile = format!("{} < 0", chain(op, 20_000));
            assert!(matches!(Expr::parse(&hostile), Err(DglError::ExprParse { .. })), "{op}");
        }
        // The operator limit holds inside parentheses too, where the
        // refused operator would otherwise surface as a missing ')'.
        let err = Expr::parse(&format!("({})", chain("-", 300))).unwrap_err().to_string();
        assert!(err.contains("binary operators"), "{err}");
        // Within the limits still parses and evaluates.
        let ok = format!("{}1{}", "(".repeat(100), ")".repeat(100));
        assert!(Expr::parse(&ok).is_ok());
        assert_eq!(eval(&format!("{} + 1", chain("+", 200))), Value::Int(201));
        assert_eq!(eval(&chain("+", 257)), Value::Int(257));
        assert!(Expr::parse(&chain("+", 258)).is_err());
    }

    #[test]
    fn referenced_vars_are_collected_in_order_without_duplicates() {
        let e = Expr::parse("i < n && $status == 'done' && i > 0").unwrap();
        assert_eq!(e.referenced_vars(), vec!["i", "n", "status"]);
        assert!(Expr::parse("1 + 2").unwrap().referenced_vars().is_empty());
        assert!(Expr::always().referenced_vars().is_empty(), "literals reference nothing");
    }

    #[test]
    fn always_is_true() {
        assert!(Expr::always().eval_bool(&Scope::root()).unwrap());
    }
}
