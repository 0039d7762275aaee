//! Slot values for facts.

use core::fmt;
use std::borrow::Borrow;
use std::ops::Deref;
use std::sync::Arc;

/// Shared, immutable text: what a symbol, a string value and a fired
/// command's name hold. Cloning one — into a fact, a binding, an
/// invocation's arguments — bumps a count instead of copying, so a value
/// a component builds once (a process's name, a command from the rule
/// text) travels the assert → match → fire path without allocating.
/// Compares, hashes and prints as the `str` it holds.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Text(Arc<str>);

impl Text {
    /// The text as a `str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(s.into())
    }
}

impl From<&String> for Text {
    fn from(s: &String) -> Self {
        Text(s.as_str().into())
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text(s.into())
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// A value stored in a fact slot or used in a rule constraint.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unquoted symbol, e.g. `remote-fault`.
    Sym(Text),
    /// A quoted string.
    Str(Text),
    /// A 64-bit integer.
    Int(i64),
    /// A double-precision float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Symbol constructor.
    pub fn sym(s: impl Into<Text>) -> Self {
        Value::Sym(s.into())
    }

    /// String constructor.
    pub fn str(s: impl Into<Text>) -> Self {
        Value::Str(s.into())
    }

    /// Numeric view: integers and floats are mutually comparable.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Equality with numeric coercion (`Int(3) == Float(3.0)`).
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a == b,
            _ => self == other,
        }
    }

    /// Numeric ordering; `None` when either side is not numeric.
    pub fn num_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        let (a, b) = (self.as_f64()?, other.as_f64()?);
        a.partial_cmp(&b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Sym(v.into())
    }
}

/// Comparison operators usable in slot constraints and `test` conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal (with numeric coercion).
    Eq,
    /// Not equal.
    Ne,
    /// Less than (numeric only).
    Lt,
    /// Less than or equal (numeric only).
    Le,
    /// Greater than (numeric only).
    Gt,
    /// Greater than or equal (numeric only).
    Ge,
}

impl CmpOp {
    /// Apply the operator. Non-numeric operands only support Eq/Ne.
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => a.loose_eq(b),
            CmpOp::Ne => !a.loose_eq(b),
            CmpOp::Lt => matches!(a.num_cmp(b), Some(Less)),
            CmpOp::Le => matches!(a.num_cmp(b), Some(Less | Equal)),
            CmpOp::Gt => matches!(a.num_cmp(b), Some(Greater)),
            CmpOp::Ge => matches!(a.num_cmp(b), Some(Greater | Equal)),
        }
    }

    /// Parse the CLIPS spelling of an operator.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "=" | "eq" => CmpOp::Eq,
            "!=" | "<>" | "neq" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion_equality() {
        assert!(Value::Int(3).loose_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).loose_eq(&Value::Float(3.5)));
        assert!(Value::sym("a").loose_eq(&Value::sym("a")));
        assert!(
            !Value::sym("a").loose_eq(&Value::str("a")),
            "symbol != string"
        );
    }

    #[test]
    fn cmp_ops_numeric() {
        let a = Value::Int(2);
        let b = Value::Float(2.5);
        assert!(CmpOp::Lt.apply(&a, &b));
        assert!(CmpOp::Le.apply(&a, &a));
        assert!(CmpOp::Gt.apply(&b, &a));
        assert!(CmpOp::Ge.apply(&b, &b));
        assert!(CmpOp::Ne.apply(&a, &b));
    }

    #[test]
    fn cmp_ops_non_numeric_only_eq() {
        let a = Value::sym("x");
        let b = Value::sym("y");
        assert!(!CmpOp::Lt.apply(&a, &b), "no ordering on symbols");
        assert!(CmpOp::Ne.apply(&a, &b));
        assert!(CmpOp::Eq.apply(&a, &a));
    }

    #[test]
    fn parse_operators() {
        assert_eq!(CmpOp::parse(">="), Some(CmpOp::Ge));
        assert_eq!(CmpOp::parse("neq"), Some(CmpOp::Ne));
        assert_eq!(CmpOp::parse("bogus"), None);
    }

    #[test]
    fn display_roundtrip_feel() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::sym("abc").to_string(), "abc");
        assert_eq!(Value::str("abc").to_string(), "\"abc\"");
        assert_eq!(CmpOp::Le.to_string(), "<=");
    }
}
