//! Bound interface definitions: the unit of RPC binding.
//!
//! At bind time the caller names a remote interface; the RPC header then
//! carries a 64-bit interface UID, a version, and a procedure index, which
//! the server's `Receiver` uses to up-call "the stub for the interface ID
//! specified in the call packet", which in turn "calls the specific
//! procedure stub for the procedure ID specified in the call packet"
//! (§3.1.3).

use crate::ast::{Module, ParamDecl, TypeExpr};
use crate::plan::MarshalPlan;
use crate::{IdlError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// The interface version assigned to all interfaces built by this crate.
///
/// The historical stub compiler derived versions from source timestamps;
/// here the version is part of the UID hash instead, and this constant is
/// carried on the wire for the version check.
pub const INTERFACE_VERSION: u16 = 1;

/// One procedure of a bound interface.
#[derive(Debug, Clone)]
pub struct ProcedureDef {
    name: String,
    index: u16,
    params: Arc<[ParamDecl]>,
    result: Option<TypeExpr>,
    plan: Arc<MarshalPlan>,
}

impl ProcedureDef {
    /// Procedure name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// On-wire procedure index.
    pub fn index(&self) -> u16 {
        self.index
    }

    /// Declared parameters.
    pub fn params(&self) -> &[ParamDecl] {
        &self.params
    }

    /// Function result type, when present.
    pub fn result(&self) -> Option<&TypeExpr> {
        self.result.as_ref()
    }

    /// The marshalling plan.
    pub fn plan(&self) -> &Arc<MarshalPlan> {
        &self.plan
    }
}

/// A complete interface: name, UID, and procedures with their plans.
#[derive(Debug, Clone)]
pub struct InterfaceDef {
    name: String,
    uid: u64,
    version: u16,
    procedures: Arc<[ProcedureDef]>,
    by_name: Arc<HashMap<String, u16>>,
}

impl InterfaceDef {
    /// Builds an interface from a parsed module, computing plans and the
    /// UID, and rejecting duplicate procedure names.
    pub fn from_ast(module: Module) -> Result<InterfaceDef> {
        let uid = Self::compute_uid(&module);
        // lint:allow(no-alloc-on-fast-path): stub-compile time, once per
        // interface.
        let mut procedures = Vec::with_capacity(module.procedures.len());
        let mut by_name = HashMap::new();
        for (i, p) in module.procedures.into_iter().enumerate() {
            let plan = MarshalPlan::build(&p.params, p.result.as_ref())?;
            // lint:allow(no-alloc-on-fast-path): stub-compile time (once
            // per interface): the name is both the map's key and the
            // procedure's own.
            if by_name.insert(p.name.clone(), i as u16).is_some() {
                return Err(IdlError::Semantic(format!(
                    "duplicate procedure `{}` in module `{}`",
                    p.name, module.name
                )));
            }
            procedures.push(ProcedureDef {
                name: p.name,
                index: i as u16,
                params: p.params.into(),
                result: p.result,
                plan: Arc::new(plan),
            });
        }
        Ok(InterfaceDef {
            name: module.name,
            uid,
            version: INTERFACE_VERSION,
            procedures: procedures.into(),
            by_name: Arc::new(by_name),
        })
    }

    /// FNV-1a over the module's full signature, so the UID changes whenever
    /// any procedure signature changes — the property the version check
    /// needs.
    fn compute_uid(module: &Module) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |s: &str| {
            for b in s.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            h ^= 0xff;
            h = h.wrapping_mul(PRIME);
        };
        eat(&module.name);
        for p in &module.procedures {
            eat(&p.name);
            for param in &p.params {
                eat(param.mode.to_modula());
                eat(&param.ty.to_modula());
            }
            if let Some(r) = &p.result {
                eat(&r.to_modula());
            }
        }
        // A UID of zero is reserved for "unbound".
        if h == 0 {
            1
        } else {
            h
        }
    }

    /// Interface (module) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The 64-bit interface UID carried in every packet.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Interface version carried in every packet.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// All procedures, indexed by their on-wire procedure index.
    pub fn procedures(&self) -> &[ProcedureDef] {
        &self.procedures
    }

    /// Looks a procedure up by name.
    pub fn procedure(&self, name: &str) -> Result<&ProcedureDef> {
        let idx = self
            .by_name
            .get(name)
            .ok_or_else(|| IdlError::NoSuchProcedure(name.to_string()))?;
        Ok(&self.procedures[*idx as usize])
    }

    /// Looks a procedure up by on-wire index.
    pub fn procedure_by_index(&self, index: u16) -> Result<&ProcedureDef> {
        self.procedures
            .get(index as usize)
            .ok_or_else(|| IdlError::NoSuchProcedure(format!("#{index}")))
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_interface;

    #[test]
    fn lookup_by_name_and_index() {
        let i = crate::test_interface();
        assert_eq!(i.procedure("MaxArg").unwrap().index(), 2);
        assert_eq!(i.procedure_by_index(1).unwrap().name(), "MaxResult");
        assert!(i.procedure("Missing").is_err());
        assert!(i.procedure_by_index(9).is_err());
    }

    #[test]
    fn uid_changes_with_signature() {
        let a = parse_interface("DEFINITION MODULE M; PROCEDURE P(x: INTEGER); END M.").unwrap();
        let b = parse_interface("DEFINITION MODULE M; PROCEDURE P(x: CARDINAL); END M.").unwrap();
        let c =
            parse_interface("DEFINITION MODULE M; PROCEDURE P(VAR IN x: INTEGER); END M.").unwrap();
        assert_ne!(a.uid(), b.uid());
        assert_ne!(a.uid(), c.uid());
        assert_ne!(b.uid(), c.uid());
    }

    #[test]
    fn duplicate_procedures_rejected() {
        let e = parse_interface(
            "DEFINITION MODULE M;
               PROCEDURE P();
               PROCEDURE P();
             END M.",
        )
        .unwrap_err();
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn modula_rendering_round_trips_meaning() {
        let i = crate::test_interface();
        let s = i.procedure("MaxResult").unwrap().to_modula();
        assert_eq!(s, "PROCEDURE MaxResult(VAR OUT buffer: ARRAY OF CHAR);");
    }
}
