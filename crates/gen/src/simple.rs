//! Small structured netlist generators with known optimal cuts, used by
//! tests and examples throughout the workspace.

use mlpart_hypergraph::{Hypergraph, HypergraphBuilder};

/// A path of `n` modules: nets `{i, i+1}`. Optimal bisection cut is 1.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use mlpart_gen::simple::chain;
///
/// let h = chain(10);
/// assert_eq!(h.num_modules(), 10);
/// assert_eq!(h.num_nets(), 9);
/// ```
pub fn chain(n: usize) -> Hypergraph {
    assert!(n >= 2, "chain needs at least two modules");
    let mut b = HypergraphBuilder::with_unit_areas(n);
    for i in 0..n - 1 {
        b.add_net([i, i + 1]).expect("indices in range");
    }
    b.build().expect("valid netlist")
}

/// `count` cliques of `size` modules each, connected in a ring by single
/// 2-pin bridges. The optimal `count`-way partition cuts exactly the `count`
/// bridges (for `count ≥ 3`; for `count == 2` the two bridges coincide...
/// no — a 2-ring has two parallel bridges).
///
/// # Panics
///
/// Panics if `count < 2` or `size < 2`.
pub fn ring_of_cliques(count: usize, size: usize) -> Hypergraph {
    assert!(count >= 2 && size >= 2, "need at least 2 cliques of 2");
    let n = count * size;
    let mut b = HypergraphBuilder::with_unit_areas(n);
    for c in 0..count {
        let base = c * size;
        for i in 0..size {
            for j in (i + 1)..size {
                b.add_net([base + i, base + j]).expect("in range");
            }
        }
        b.add_net([base + size - 1, (base + size) % n])
            .expect("in range");
    }
    b.build().expect("valid netlist")
}

/// Two communities of `half` modules (ring + chord structure) bridged by a
/// single net: the canonical "there is an obvious bisection" instance.
/// Optimal cut 1.
///
/// # Panics
///
/// Panics if `half < 4`.
pub fn two_communities(half: usize) -> Hypergraph {
    assert!(half >= 4, "communities need at least 4 modules");
    let mut b = HypergraphBuilder::with_unit_areas(2 * half);
    for base in [0, half] {
        for i in 0..half {
            b.add_net([base + i, base + (i + 1) % half])
                .expect("in range");
            b.add_net([base + i, base + (i + 3) % half])
                .expect("in range");
        }
    }
    b.add_net([half - 1, half]).expect("in range");
    b.build().expect("valid netlist")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::{metrics, Partition};

    #[test]
    fn chain_counts() {
        let h = chain(5);
        assert_eq!(h.num_nets(), 4);
        assert_eq!(h.num_pins(), 8);
    }

    #[test]
    fn ring_of_cliques_counts() {
        let h = ring_of_cliques(4, 4);
        assert_eq!(h.num_modules(), 16);
        assert_eq!(h.num_nets(), 4 * 6 + 4);
    }

    #[test]
    fn two_communities_has_bridge() {
        let h = two_communities(8);
        let p = Partition::from_assignment(&h, 2, (0..16).map(|i| u32::from(i >= 8)).collect())
            .expect("valid");
        assert_eq!(metrics::cut(&h, &p), 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn chain_rejects_tiny() {
        let _ = chain(1);
    }
}
