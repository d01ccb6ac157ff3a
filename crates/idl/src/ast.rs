//! Abstract syntax for the Modula-2+ DEFINITION MODULE subset.

/// A parsed `DEFINITION MODULE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module (interface) name.
    pub name: String,
    /// `CONST name = value;` declarations, usable in array bounds.
    pub consts: Vec<(String, u64)>,
    /// Procedures exported by the interface, in declaration order — the
    /// order assigns the on-wire procedure indices.
    pub procedures: Vec<ProcedureDecl>,
}

/// One `PROCEDURE` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcedureDecl {
    /// Procedure name.
    pub name: String,
    /// Formal parameters in order.
    pub params: Vec<ParamDecl>,
    /// Function result type, if any (`PROCEDURE F(...): INTEGER`).
    pub result: Option<TypeExpr>,
}

/// Parameter passing mode.
///
/// Modula-2+ `VAR` parameters are passed by address; the additional `IN` /
/// `OUT` annotation "tells the stub compiler that the argument is being
/// passed in one direction only. The stub can use this information to avoid
/// transporting and copying the argument twice." (§2.2.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// By value: marshalled into the call packet only.
    Value,
    /// `VAR`: marshalled into both call and result packets.
    VarInOut,
    /// `VAR IN`: transported only in the call packet.
    VarIn,
    /// `VAR OUT`: transported only in the result packet.
    VarOut,
}

/// One formal parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Passing mode.
    pub mode: Mode,
    /// Declared type.
    pub ty: TypeExpr,
}

/// Type expressions the stub compiler understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// 32-bit signed `INTEGER`.
    Integer,
    /// 32-bit unsigned `CARDINAL`.
    Cardinal,
    /// 8-bit `CHAR`.
    Char,
    /// `BOOLEAN`.
    Boolean,
    /// 64-bit `LONGREAL` (we marshal all reals at double precision).
    Real,
    /// `Text.T` — an immutable text string in garbage-collected storage.
    Text,
    /// `ARRAY [0..n-1] OF elem` — a fixed-length array of `len` elements.
    FixedArray {
        /// Number of elements.
        len: usize,
        /// Element type.
        elem: Box<TypeExpr>,
    },
    /// `ARRAY OF elem` — an open (variable-length) array.
    OpenArray {
        /// Element type.
        elem: Box<TypeExpr>,
    },
    /// `RECORD f1: T1; f2: T2; … END` — a record with named fields.
    Record {
        /// Field names and types, in declaration order.
        fields: Vec<(String, TypeExpr)>,
    },
}

impl TypeExpr {
    /// Returns the fixed marshalled size in bytes, or `None` when the size
    /// is only known at call time (open arrays, `Text.T`).
    pub fn fixed_size(&self) -> Option<usize> {
        match self {
            TypeExpr::Integer | TypeExpr::Cardinal => Some(4),
            TypeExpr::Char | TypeExpr::Boolean => Some(1),
            TypeExpr::Real => Some(8),
            TypeExpr::Text => None,
            TypeExpr::FixedArray { len, elem } => elem.fixed_size().map(|s| s * len),
            TypeExpr::OpenArray { .. } => None,
            TypeExpr::Record { fields } => fields
                .iter()
                .map(|(_, t)| t.fixed_size())
                .sum::<Option<usize>>(),
        }
    }

    /// Renders the type in Modula-2+ syntax.
    pub fn to_modula(&self) -> String {
        match self {
            TypeExpr::Integer => "INTEGER".into(),
            TypeExpr::Cardinal => "CARDINAL".into(),
            TypeExpr::Char => "CHAR".into(),
            TypeExpr::Boolean => "BOOLEAN".into(),
            TypeExpr::Real => "LONGREAL".into(),
            TypeExpr::Text => "Text.T".into(),
            TypeExpr::FixedArray { len, elem } => {
                format!("ARRAY [0..{}] OF {}", len - 1, elem.to_modula())
            }
            TypeExpr::OpenArray { elem } => format!("ARRAY OF {}", elem.to_modula()),
            TypeExpr::Record { fields } => {
                let fs: Vec<String> = fields
                    .iter()
                    .map(|(n, t)| format!("{n}: {}", t.to_modula()))
                    .collect();
                format!("RECORD {} END", fs.join("; "))
            }
        }
    }
}

impl crate::ProcedureDef {
    /// Renders the declaration in Modula-2+ syntax.
    pub fn to_modula(&self) -> String {
        let params: Vec<String> = self
            .params()
            .iter()
            .map(|p| format!("{}{}: {}", p.mode.to_modula(), p.name, p.ty.to_modula()))
            .collect();
        let ret = match self.result() {
            Some(t) => format!(": {}", t.to_modula()),
            None => String::new(),
        };
        format!("PROCEDURE {}({}){};", self.name(), params.join("; "), ret)
    }
}

impl crate::InterfaceDef {
    /// Renders the whole interface back to `DEFINITION MODULE` source.
    ///
    /// Reparsing the rendered source yields an interface with the same
    /// UID — the property `crates/idl/tests/roundtrip.rs` checks for
    /// generated interfaces.
    pub fn to_modula_source(&self) -> String {
        let mut out = format!("DEFINITION MODULE {};\n", self.name());
        for p in self.procedures() {
            out.push_str("  ");
            out.push_str(&p.to_modula());
            out.push('\n');
        }
        out.push_str(&format!("END {}.\n", self.name()));
        out
    }
}

impl Mode {
    /// Renders the mode prefix in Modula-2+ syntax (empty for by-value).
    pub fn to_modula(&self) -> &'static str {
        match self {
            Mode::Value => "",
            Mode::VarInOut => "VAR ",
            Mode::VarIn => "VAR IN ",
            Mode::VarOut => "VAR OUT ",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_sizes() {
        assert_eq!(TypeExpr::Integer.fixed_size(), Some(4));
        assert_eq!(TypeExpr::Real.fixed_size(), Some(8));
        assert_eq!(
            TypeExpr::FixedArray {
                len: 1440,
                elem: Box::new(TypeExpr::Char)
            }
            .fixed_size(),
            Some(1440)
        );
        assert_eq!(
            TypeExpr::OpenArray {
                elem: Box::new(TypeExpr::Char)
            }
            .fixed_size(),
            None
        );
        assert_eq!(TypeExpr::Text.fixed_size(), None);
    }

    #[test]
    fn modula_rendering() {
        let t = TypeExpr::FixedArray {
            len: 1440,
            elem: Box::new(TypeExpr::Char),
        };
        assert_eq!(t.to_modula(), "ARRAY [0..1439] OF CHAR");
        assert_eq!(Mode::VarOut.to_modula(), "VAR OUT ");
    }
}
