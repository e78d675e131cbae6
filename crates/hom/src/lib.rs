//! # `nev-hom` — homomorphisms, valuations, minimality and cores
//!
//! Homomorphisms play two roles in *"When is Naïve Evaluation Possible?"*:
//! they **define** the semantics of incomplete databases (valuations are
//! homomorphisms into the constants; the OWA/CWA/WCWA semantics are characterised by
//! the existence of ordinary / strong onto / onto database homomorphisms, §4.3 and
//! §6), and they are the notion under which query **preservation** is studied (§5).
//!
//! This crate provides:
//!
//! * [`mapping::ValueMap`] — finite mappings on database values, with composition,
//!   images of tuples/instances and fixed-point bookkeeping;
//! * [`search`] — a backtracking homomorphism search engine with configurable
//!   constraints (database homomorphisms, injectivity, onto / strong onto
//!   surjectivity, pre-assignments, codomain restrictions) and both
//!   "first solution" and "enumerate all" entry points;
//! * [`valuation`] — valuations (nulls ↦ constants), their enumeration over a bounded
//!   constant budget, and application to instances;
//! * [`minimal`] — `D`-minimal homomorphisms and valuations (§10);
//! * [`core`] — relational cores: `core(D)` computation and the `is_core` test (§10.1);
//! * [`iso`] — isomorphism of instances (the structural equivalence `≈` of §3.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod iso;
pub mod mapping;
pub mod minimal;
pub mod search;
pub mod valuation;

pub use crate::core::{core_of, is_core};
pub use iso::{isomorphic, isomorphic_fixing_constants};
pub use mapping::ValueMap;
pub use search::{
    all_homomorphisms, exists_homomorphism, find_homomorphism, HomConfig, Surjectivity,
    VariableOrdering,
};
pub use valuation::{apply_valuation, enumerate_valuations, is_valuation, Valuations};
