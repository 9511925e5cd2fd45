//! Structural diagnosis of singular MNA systems.
//!
//! A singular matrix out of the LU factorization is almost always a
//! *circuit* defect, not a numerics one, and the two common shapes have
//! crisp structural signatures:
//!
//! * **floating node** — a node with no element incidence at all
//!   contributes an identically zero row/column;
//! * **ideal-branch loop** — a cycle of voltage sources and
//!   zero-inductance inductors (both enforce `v_p − v_n = known` with no
//!   impedance term) overdetermines KVL, so the branch rows are linearly
//!   dependent.
//!
//! [`diagnose_singular`] checks for both and converts a bare
//! [`NumericError::Singular`] into a [`SpiceError::SingularMna`] naming
//! the offending node or element. When neither pattern matches, the
//! failing pivot is translated back to its unknown: the sparse LU
//! reports a singular pivot by its original column, which is the MNA
//! unknown's index.

use crate::netlist::{Element, Netlist, NodeId};
use crate::stamp::MnaLayout;
use crate::SpiceError;
use rlcx_numeric::NumericError;

/// Union-find over node ids (ground included) for loop detection.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.0[i] != i {
            self.0[i] = self.0[self.0[i]]; // path halving
            i = self.0[i];
        }
        i
    }

    /// Returns `false` if `a` and `b` were already connected (the new
    /// edge closes a cycle).
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra] = rb;
        true
    }
}

/// Name of any element, for messages.
fn element_name(e: &Element) -> &str {
    match e {
        Element::Resistor { name, .. }
        | Element::Capacitor { name, .. }
        | Element::Inductor { name, .. }
        | Element::VSource { name, .. } => name,
    }
}

/// Terminal nodes of any element.
fn terminals(e: &Element) -> (NodeId, NodeId) {
    match e {
        Element::Resistor { p, n, .. }
        | Element::Capacitor { p, n, .. }
        | Element::Inductor { p, n, .. }
        | Element::VSource { p, n, .. } => (*p, *n),
    }
}

/// First non-ground node with no element incidence at all, if any.
fn find_floating_node(nl: &Netlist) -> Option<NodeId> {
    let mut touched = vec![false; nl.node_count()];
    touched[0] = true; // ground is always "connected"
    for e in &nl.elements {
        let (p, n) = terminals(e);
        touched[p.0] = true;
        touched[n.0] = true;
    }
    touched.iter().position(|&t| !t).map(NodeId)
}

/// First element closing a cycle of ideal branches (voltage sources and
/// zero-henry inductors), if any. Ground participates as a regular node.
fn find_ideal_loop(nl: &Netlist) -> Option<&Element> {
    let mut uf = UnionFind::new(nl.node_count());
    for e in &nl.elements {
        let ideal = match e {
            Element::VSource { .. } => true,
            Element::Inductor { henries, .. } => *henries == 0.0,
            _ => false,
        };
        if !ideal {
            continue;
        }
        let (p, n) = terminals(e);
        if !uf.union(p.0, n.0) {
            return Some(e);
        }
    }
    None
}

/// Human name for MNA unknown `k`: a node voltage for `k < nv`, the
/// branch current of an inductor or source otherwise.
fn unknown_name(nl: &Netlist, layout: &MnaLayout, k: usize) -> String {
    if k < layout.nv {
        format!("node '{}'", nl.node_name(NodeId(k + 1)))
    } else if let Some(&ei) = layout.branch_elems.get(k - layout.nv) {
        format!("branch current of '{}'", element_name(&nl.elements[ei]))
    } else {
        format!("MNA unknown #{k}")
    }
}

/// Upgrades a [`NumericError::Singular`] from an MNA factorization into
/// a [`SpiceError::SingularMna`] naming the structural culprit when one
/// can be identified: a floating node, an ideal-branch loop, or else the
/// unknown whose column had no usable pivot.
///
/// Any other numeric error passes through unchanged.
pub(crate) fn diagnose_singular(nl: &Netlist, layout: &MnaLayout, err: NumericError) -> SpiceError {
    let NumericError::Singular { pivot } = err else {
        return err.into();
    };
    if let Some(node) = find_floating_node(nl) {
        return SpiceError::SingularMna {
            unknown: format!("node '{}'", nl.node_name(node)),
            reason: "floating node: no element connects it to the rest of the circuit".into(),
        };
    }
    if let Some(e) = find_ideal_loop(nl) {
        return SpiceError::SingularMna {
            unknown: format!("element '{}'", element_name(e)),
            reason: "closes a loop of ideal branches (voltage sources / zero-inductance \
                     inductors), overdetermining KVL"
                .into(),
        };
    }
    SpiceError::SingularMna {
        unknown: unknown_name(nl, layout, pivot),
        reason: "elimination found no usable pivot for this unknown".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;
    use crate::waveform::Waveform;

    #[test]
    fn floating_node_is_named() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.node("orphan"); // interned but never connected
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let layout = MnaLayout::new(&nl).unwrap();
        let err = diagnose_singular(&nl, &layout, NumericError::Singular { pivot: 1 });
        match err {
            SpiceError::SingularMna { unknown, reason } => {
                assert!(unknown.contains("orphan"), "{unknown}");
                assert!(reason.contains("floating"), "{reason}");
            }
            other => panic!("expected SingularMna, got {other:?}"),
        }
    }

    #[test]
    fn vsource_loop_is_named() {
        // Two sources in parallel short each other: KVL overdetermined.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.vsource("V2", a, GROUND, Waveform::Dc(2.0)).unwrap();
        nl.resistor("R", a, GROUND, 1.0).unwrap();
        let layout = MnaLayout::new(&nl).unwrap();
        let err = diagnose_singular(&nl, &layout, NumericError::Singular { pivot: 2 });
        match err {
            SpiceError::SingularMna { unknown, reason } => {
                assert!(unknown.contains("V2"), "{unknown}");
                assert!(reason.contains("loop"), "{reason}");
            }
            other => panic!("expected SingularMna, got {other:?}"),
        }
    }

    #[test]
    fn zero_inductor_vsource_loop_is_named() {
        // V — L(0 H) loop through ground: the zero-henry inductor closes
        // the cycle the moment both it and the source are ideal branches.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.inductor("Lshort", a, GROUND, 0.0).unwrap();
        let layout = MnaLayout::new(&nl).unwrap();
        let err = diagnose_singular(&nl, &layout, NumericError::Singular { pivot: 0 });
        match err {
            SpiceError::SingularMna { unknown, .. } => {
                assert!(unknown.contains("Lshort"), "{unknown}");
            }
            other => panic!("expected SingularMna, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_structure_names_dense_pivot() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, b, 1.0).unwrap();
        nl.capacitor("C", b, GROUND, 1e-12).unwrap();
        let layout = MnaLayout::new(&nl).unwrap();
        // No structural defect: the pivot's unknown is named — a node…
        let err = diagnose_singular(&nl, &layout, NumericError::Singular { pivot: 1 });
        match err {
            SpiceError::SingularMna { unknown, .. } => assert!(unknown.contains('b'), "{unknown}"),
            other => panic!("expected SingularMna, got {other:?}"),
        }
        // …or an element's branch current.
        let err = diagnose_singular(&nl, &layout, NumericError::Singular { pivot: 2 });
        match err {
            SpiceError::SingularMna { unknown, .. } => {
                assert!(unknown.contains("branch current of 'V'"), "{unknown}")
            }
            other => panic!("expected SingularMna, got {other:?}"),
        }
        // Non-singular errors pass through untouched.
        let err = diagnose_singular(
            &nl,
            &layout,
            NumericError::InvalidArgument { what: "x".into() },
        );
        assert!(matches!(err, SpiceError::Numeric(_)));
    }
}
