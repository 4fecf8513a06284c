//! The netlist hypergraph `H(V, E)` in compressed sparse row form.
//!
//! Following the paper's §I: a netlist hypergraph has `n` modules
//! `V = {v1, …, vn}`; a net `e ∈ E` is a subset of `V` with size greater than
//! one. Modules carry an *area* `A(v)`; the paper's experiments use unit
//! areas, but coarsening (Definition 1) accumulates cluster areas, so areas
//! are first-class here.
//!
//! The structure is immutable after construction: the partitioners never
//! mutate the netlist, only partitions of it, and coarsening produces *new*
//! (induced) hypergraphs. Both incidence directions are stored CSR-style:
//! `net → pins` and `module → incident nets`. A [`NetList`] is the same
//! netlist with only the first direction, for levels that are stored but
//! not worked on.

use crate::error::BuildHypergraphError;
use crate::ids::{ModuleId, NetId};

/// An immutable netlist hypergraph with module areas.
///
/// Construct one with [`HypergraphBuilder`]. Nets with fewer than two
/// *distinct* pins are dropped during construction (the paper defines a net
/// as a module subset of size greater than one; single-pin nets can never be
/// cut). Duplicate pins within one net are merged.
///
/// # Examples
///
/// ```
/// use mlpart_hypergraph::{Hypergraph, HypergraphBuilder, ModuleId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(4);
/// b.add_net([0, 1, 2])?;
/// b.add_net([2, 3])?;
/// let h: Hypergraph = b.build()?;
/// assert_eq!(h.num_modules(), 4);
/// assert_eq!(h.num_nets(), 2);
/// assert_eq!(h.num_pins(), 5);
/// assert_eq!(h.pins(mlpart_hypergraph::NetId::new(1)).len(), 2);
/// assert_eq!(h.total_area(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    /// `net_offsets[e] .. net_offsets[e+1]` indexes `net_pins`.
    net_offsets: Vec<u32>,
    /// Concatenated pin lists of all nets.
    net_pins: Vec<ModuleId>,
    /// `mod_offsets[v] .. mod_offsets[v+1]` indexes `mod_nets`.
    mod_offsets: Vec<u32>,
    /// Concatenated incident-net lists of all modules.
    mod_nets: Vec<NetId>,
    /// Weight of each net; `1` unless built with weighted nets. The cut
    /// objective sums the weights of cut nets (the paper's unweighted cut is
    /// the all-ones special case; weights arise when coalescing duplicate
    /// coarse nets, hMETIS-style).
    net_weights: Vec<u32>,
    /// `A(v)` per module; strictly positive.
    areas: Vec<u64>,
    /// `A(V) = Σ A(v)`.
    total_area: u64,
    /// Largest single module area `A(v*)`, used by the balance bounds.
    max_area: u64,
}

impl Hypergraph {
    /// Number of modules `|V|`.
    #[inline]
    pub fn num_modules(&self) -> usize {
        self.areas.len()
    }

    /// Number of nets `|E|` (after dropping sub-2-pin nets).
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.net_offsets.len() - 1
    }

    /// Total number of pins (sum of net sizes).
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// The pins (modules) of net `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn pins(&self, e: NetId) -> &[ModuleId] {
        let lo = self.net_offsets[e.index()] as usize;
        let hi = self.net_offsets[e.index() + 1] as usize;
        &self.net_pins[lo..hi]
    }

    /// The nets incident to module `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn nets(&self, v: ModuleId) -> &[NetId] {
        let lo = self.mod_offsets[v.index()] as usize;
        let hi = self.mod_offsets[v.index() + 1] as usize;
        &self.mod_nets[lo..hi]
    }

    /// Size `|e|` of net `e` (number of pins).
    #[inline]
    pub fn net_size(&self, e: NetId) -> usize {
        (self.net_offsets[e.index() + 1] - self.net_offsets[e.index()]) as usize
    }

    /// Degree of module `v` (number of incident nets).
    #[inline]
    pub fn degree(&self, v: ModuleId) -> usize {
        (self.mod_offsets[v.index() + 1] - self.mod_offsets[v.index()]) as usize
    }

    /// Area `A(v)` of module `v`.
    #[inline]
    pub fn area(&self, v: ModuleId) -> u64 {
        self.areas[v.index()]
    }

    /// Total area `A(V)`.
    #[inline]
    pub fn total_area(&self) -> u64 {
        self.total_area
    }

    /// Largest single-module area `A(v*)`; the balance bounds of §III-B use
    /// this to guarantee at least one legal move always exists.
    #[inline]
    pub fn max_area(&self) -> u64 {
        self.max_area
    }

    /// All module areas as a slice (dense by module index).
    #[inline]
    pub fn areas(&self) -> &[u64] {
        &self.areas
    }

    /// Iterator over all module ids.
    pub fn modules(&self) -> impl Iterator<Item = ModuleId> + Clone + '_ {
        crate::ids::module_ids(self.num_modules())
    }

    /// Iterator over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + Clone + '_ {
        crate::ids::net_ids(self.num_nets())
    }

    /// Maximum net size across the netlist; `0` for a netlist with no nets.
    pub fn max_net_size(&self) -> usize {
        self.net_ids().map(|e| self.net_size(e)).max().unwrap_or(0)
    }

    /// Weight of net `e` (`1` for plain netlists).
    #[inline]
    pub fn net_weight(&self, e: NetId) -> u32 {
        self.net_weights[e.index()]
    }

    /// All net weights as a slice (dense by net index).
    #[inline]
    pub fn net_weights(&self) -> &[u32] {
        &self.net_weights
    }

    /// Sum of all net weights (`num_nets()` for plain netlists).
    pub fn total_net_weight(&self) -> u64 {
        self.net_weights.iter().map(|&w| w as u64).sum()
    }

    /// Extracts the sub-netlist induced by the modules with `keep[v] = true`.
    ///
    /// Nets are restricted to kept pins; restricted nets with fewer than two
    /// pins vanish. Returns the sub-netlist and the mapping from its dense
    /// module ids back to this netlist's ids.
    ///
    /// Used by recursive bisection: after a 2-way split, each side is
    /// extracted and partitioned independently.
    ///
    /// # Errors
    ///
    /// Returns [`BuildHypergraphError::MaskLengthMismatch`] when `keep`
    /// does not have one entry per module, and propagates builder errors
    /// when the extracted sub-netlist fails validation — both impossible
    /// for masks produced by the pipelines, but arbitrary callers get a
    /// value, not a panic.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlpart_hypergraph::HypergraphBuilder;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = HypergraphBuilder::with_unit_areas(4);
    /// b.add_net([0, 1, 2])?;
    /// b.add_net([2, 3])?;
    /// let h = b.build()?;
    /// let (sub, back) = h.extract(&[true, true, true, false])?;
    /// assert_eq!(sub.num_modules(), 3);
    /// assert_eq!(sub.num_nets(), 1); // {2,3} collapsed to one pin
    /// assert_eq!(back[2].index(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn extract(
        &self,
        keep: &[bool],
    ) -> Result<(Hypergraph, Vec<ModuleId>), BuildHypergraphError> {
        if keep.len() != self.num_modules() {
            return Err(BuildHypergraphError::MaskLengthMismatch {
                mask_len: keep.len(),
                num_modules: self.num_modules(),
            });
        }
        let mut back: Vec<ModuleId> = Vec::new();
        let mut fwd = vec![usize::MAX; self.num_modules()];
        let mut areas = Vec::new();
        for v in self.modules() {
            if keep[v.index()] {
                fwd[v.index()] = back.len();
                back.push(v);
                areas.push(self.area(v));
            }
        }
        let mut builder = HypergraphBuilder::new(areas);
        let mut scratch = Vec::new();
        for e in self.net_ids() {
            scratch.clear();
            scratch.extend(
                self.pins(e)
                    .iter()
                    .filter(|v| keep[v.index()])
                    .map(|v| fwd[v.index()]),
            );
            if scratch.len() >= 2 {
                builder.add_weighted_net(scratch.iter().copied(), self.net_weight(e))?;
            }
        }
        let sub = builder.build()?;
        Ok((sub, back))
    }

    /// Drops the module → net incidence, keeping the nets, their weights
    /// and the module areas; [`NetList::into_hypergraph`] rebuilds it.
    pub fn into_net_list(self) -> NetList {
        NetList {
            net_offsets: self.net_offsets,
            net_pins: self.net_pins,
            net_weights: self.net_weights,
            areas: self.areas,
            total_area: self.total_area,
            max_area: self.max_area,
        }
    }

    /// Checks internal CSR consistency; used by tests and debug assertions.
    ///
    /// Verifies that offsets are monotone, every pin and net reference is in
    /// range, and the two incidence directions agree.
    pub fn validate(&self) -> bool {
        let n = self.num_modules();
        let m = self.num_nets();
        if self.net_offsets.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        if self.mod_offsets.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        if self.net_pins.iter().any(|p| p.index() >= n) {
            return false;
        }
        if self.mod_nets.iter().any(|e| e.index() >= m) {
            return false;
        }
        // Each (net, pin) incidence must appear exactly once in each direction.
        let mut forward = 0usize;
        for e in self.net_ids() {
            for &v in self.pins(e) {
                if !self.nets(v).contains(&e) {
                    return false;
                }
                forward += 1;
            }
        }
        forward == self.mod_nets.len()
    }
}

/// A [`Hypergraph`] without its module → net incidence: the net → pin CSR,
/// the net weights and the module areas.
///
/// The multilevel hierarchy stores every coarse level but the one being
/// worked on this way; the dropped direction is a pure function of the
/// nets, so [`into_hypergraph`](Self::into_hypergraph) gives back a netlist
/// equal to the one [`Hypergraph::into_net_list`] was called on.
///
/// # Examples
///
/// ```
/// use mlpart_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(3);
/// b.add_net([0, 1, 2])?;
/// let h = b.build()?;
/// let nets = h.clone().into_net_list();
/// assert_eq!(nets.num_modules(), 3);
/// assert_eq!(nets.into_hypergraph(), h);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetList {
    net_offsets: Vec<u32>,
    net_pins: Vec<ModuleId>,
    net_weights: Vec<u32>,
    areas: Vec<u64>,
    total_area: u64,
    max_area: u64,
}

impl NetList {
    /// Number of modules `|V|`.
    pub fn num_modules(&self) -> usize {
        self.areas.len()
    }

    /// Total number of pins (sum of net sizes).
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// Rebuilds the module → net incidence by one counting transpose of
    /// the pins, listing each module's nets in ascending net order.
    pub fn into_hypergraph(self) -> Hypergraph {
        let n = self.areas.len();
        let mut mod_offsets = vec![0u32; n + 1];
        for &p in &self.net_pins {
            mod_offsets[p.index() + 1] += 1;
        }
        for i in 0..n {
            mod_offsets[i + 1] += mod_offsets[i];
        }
        let mut cursor = mod_offsets.clone();
        let mut mod_nets = vec![NetId::default(); self.net_pins.len()];
        for (e, w) in self.net_offsets.windows(2).enumerate() {
            for &p in &self.net_pins[w[0] as usize..w[1] as usize] {
                let c = &mut cursor[p.index()];
                mod_nets[*c as usize] = NetId::new(e);
                *c += 1;
            }
        }
        let h = Hypergraph {
            net_offsets: self.net_offsets,
            net_pins: self.net_pins,
            mod_offsets,
            mod_nets,
            net_weights: self.net_weights,
            areas: self.areas,
            total_area: self.total_area,
            max_area: self.max_area,
        };
        debug_assert!(h.validate());
        h
    }
}

/// Incremental builder for [`Hypergraph`].
///
/// Declare the module count (and optionally per-module areas) up front, then
/// add nets as iterators of module indices. [`build`](Self::build) validates
/// everything and produces the immutable CSR structure.
///
/// # Examples
///
/// ```
/// use mlpart_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new(vec![2, 3, 5]);
/// b.add_net([0, 1])?;
/// b.add_net([0, 1, 2])?;
/// b.add_net([2])?; // single-pin: silently dropped at build()
/// let h = b.build()?;
/// assert_eq!(h.num_nets(), 2);
/// assert_eq!(h.total_area(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct HypergraphBuilder {
    areas: Vec<u64>,
    /// Flattened net pins plus offsets, to avoid per-net allocations.
    pins: Vec<u32>,
    offsets: Vec<u32>,
    weights: Vec<u32>,
}

impl HypergraphBuilder {
    /// Creates a builder with explicit per-module areas.
    pub fn new(areas: Vec<u64>) -> Self {
        HypergraphBuilder {
            areas,
            pins: Vec::new(),
            offsets: vec![0],
            weights: Vec::new(),
        }
    }

    /// Creates a builder with explicit per-module areas and room for `nets`
    /// nets of `pins` pins in total, so adding that many grows no buffer;
    /// [`build`](Self::build) trims what dropped nets and merged pins leave.
    pub fn with_capacity(areas: Vec<u64>, nets: usize, pins: usize) -> Self {
        let mut offsets = Vec::with_capacity(nets + 1);
        offsets.push(0);
        HypergraphBuilder {
            areas,
            pins: Vec::with_capacity(pins),
            offsets,
            weights: Vec::with_capacity(nets),
        }
    }

    /// Creates a builder with `n` modules of unit area, matching the paper's
    /// experimental setup ("we assume unit cell area for all test cases").
    pub fn with_unit_areas(n: usize) -> Self {
        Self::new(vec![1; n])
    }

    /// Number of modules declared on this builder.
    pub fn num_modules(&self) -> usize {
        self.areas.len()
    }

    /// Number of nets added so far (including ones that may be dropped at
    /// build time for having fewer than two distinct pins).
    pub fn num_nets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Adds a net given as an iterator of module indices.
    ///
    /// # Errors
    ///
    /// Returns [`BuildHypergraphError::PinOutOfRange`] if any index is
    /// `>= num_modules`; the builder is left unchanged in that case.
    pub fn add_net<I>(&mut self, pins: I) -> Result<(), BuildHypergraphError>
    where
        I: IntoIterator<Item = usize>,
    {
        self.add_weighted_net(pins, 1)
    }

    /// Adds a net with an explicit weight. Weighted nets contribute their
    /// weight to the cut objective; weight `1` is the ordinary case.
    ///
    /// # Errors
    ///
    /// As [`add_net`](Self::add_net); additionally rejects weight `0`
    /// (a zero-weight net would be invisible to every objective).
    pub fn add_weighted_net<I>(&mut self, pins: I, weight: u32) -> Result<(), BuildHypergraphError>
    where
        I: IntoIterator<Item = usize>,
    {
        if weight == 0 {
            return Err(BuildHypergraphError::ZeroWeight {
                net: self.offsets.len() - 1,
            });
        }
        let start = self.pins.len();
        for pin in pins {
            if pin >= self.areas.len() {
                self.pins.truncate(start);
                return Err(BuildHypergraphError::PinOutOfRange {
                    net: self.offsets.len() - 1,
                    pin,
                    num_modules: self.areas.len(),
                });
            }
            self.pins.push(pin as u32);
        }
        self.offsets.push(self.pins.len() as u32);
        self.weights.push(weight);
        Ok(())
    }

    /// Validates the accumulated netlist without consuming the builder,
    /// applying a **stricter** standard than [`build`](Self::build).
    ///
    /// [`build`](Self::build) is deliberately permissive about duplicate
    /// pins (it merges them — convenient for programmatic construction),
    /// but a file-sourced net that lists more pins than the netlist has
    /// modules can only arise from duplicates, i.e. a corrupt or
    /// adversarial input. `validate` rejects such nets with
    /// [`BuildHypergraphError::NetTooLarge`], along with everything
    /// [`build`](Self::build) itself would reject (zero areas, area
    /// overflow), so parsers can fail with a typed error before committing
    /// to construction.
    pub fn validate(&self) -> Result<(), BuildHypergraphError> {
        if let Some(z) = self.areas.iter().position(|&a| a == 0) {
            return Err(BuildHypergraphError::ZeroArea { module: z });
        }
        let mut total: u64 = 0;
        for &a in &self.areas {
            total = total
                .checked_add(a)
                .ok_or(BuildHypergraphError::AreaOverflow)?;
        }
        let n = self.areas.len();
        for (net, w) in self.offsets.windows(2).enumerate() {
            let pins = (w[1] - w[0]) as usize;
            if pins > n {
                return Err(BuildHypergraphError::NetTooLarge {
                    net,
                    pins,
                    num_modules: n,
                });
            }
        }
        Ok(())
    }

    /// Consumes the builder and produces the immutable hypergraph.
    ///
    /// Duplicate pins within a net are merged, and nets left with fewer than
    /// two pins are dropped (the paper defines nets as module subsets with
    /// size greater than one).
    ///
    /// # Errors
    ///
    /// * [`BuildHypergraphError::ZeroArea`] if any module area is zero.
    /// * [`BuildHypergraphError::AreaOverflow`] if the total area overflows.
    pub fn build(mut self) -> Result<Hypergraph, BuildHypergraphError> {
        let n = self.areas.len();
        if let Some(z) = self.areas.iter().position(|&a| a == 0) {
            return Err(BuildHypergraphError::ZeroArea { module: z });
        }
        let mut total_area: u64 = 0;
        for &a in &self.areas {
            total_area = total_area
                .checked_add(a)
                .ok_or(BuildHypergraphError::AreaOverflow)?;
        }
        let max_area = self.areas.iter().copied().max().unwrap_or(0);

        // Deduplicate pins per net with a stamp array (O(pins) total) and
        // compact the kept nets in place: kept pins, offsets and weights
        // never pass their read position, so the input buffers become the
        // output, trimmed to what was kept.
        let mut stamp = vec![u32::MAX; n];
        let (mut kept_pins, mut kept_nets, mut lo, mut tag) = (0usize, 0usize, 0usize, 0u32);
        for net in 0..self.weights.len() {
            // Read before the slot `kept_nets + 1 ≤ net + 1` is rewritten.
            let hi = self.offsets[net + 1] as usize;
            let start = kept_pins;
            for read in lo..hi {
                let seen = &mut stamp[self.pins[read] as usize];
                if *seen != tag {
                    *seen = tag;
                    self.pins.swap(kept_pins, read);
                    kept_pins += 1;
                }
            }
            (lo, tag) = (hi, tag + 1);
            if kept_pins - start < 2 {
                // Single-pin (or empty) net after dedup: drop it.
                kept_pins = start;
            } else {
                kept_nets += 1;
                self.offsets[kept_nets] = kept_pins as u32;
                self.weights.swap(kept_nets - 1, net);
            }
        }
        drop(stamp);
        self.pins.truncate(kept_pins);
        self.pins.shrink_to_fit();
        self.offsets.truncate(kept_nets + 1);
        self.offsets.shrink_to_fit();
        self.weights.truncate(kept_nets);
        self.weights.shrink_to_fit();
        Ok(NetList {
            net_offsets: self.offsets,
            // Same size and alignment, so this collect reuses the buffer.
            net_pins: self.pins.into_iter().map(ModuleId::from).collect(),
            net_weights: self.weights,
            areas: self.areas,
            total_area,
            max_area,
        }
        .into_hypergraph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hypergraph {
        // 5 modules; nets: {0,1,2}, {1,2}, {3,4}, {0,4}
        let mut b = HypergraphBuilder::with_unit_areas(5);
        b.add_net([0, 1, 2]).unwrap();
        b.add_net([1, 2]).unwrap();
        b.add_net([3, 4]).unwrap();
        b.add_net([0, 4]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let h = tiny();
        assert_eq!(h.num_modules(), 5);
        assert_eq!(h.num_nets(), 4);
        assert_eq!(h.num_pins(), 9);
        assert_eq!(h.total_area(), 5);
        assert_eq!(h.max_area(), 1);
        assert!(h.validate());
    }

    #[test]
    fn incidence_directions_agree() {
        let h = tiny();
        assert_eq!(
            h.pins(NetId::new(0)),
            &[ModuleId::new(0), ModuleId::new(1), ModuleId::new(2)]
        );
        assert_eq!(h.nets(ModuleId::new(1)), &[NetId::new(0), NetId::new(1)]);
        assert_eq!(h.degree(ModuleId::new(0)), 2);
        assert_eq!(h.degree(ModuleId::new(4)), 2);
        assert_eq!(h.net_size(NetId::new(2)), 2);
    }

    #[test]
    fn stats() {
        let h = tiny();
        assert_eq!(h.max_net_size(), 3);
    }

    #[test]
    fn drops_single_pin_nets() {
        let mut b = HypergraphBuilder::with_unit_areas(3);
        b.add_net([0]).unwrap();
        b.add_net([1, 2]).unwrap();
        b.add_net(std::iter::empty()).unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.num_nets(), 1);
        assert_eq!(h.pins(NetId::new(0)), &[ModuleId::new(1), ModuleId::new(2)]);
    }

    #[test]
    fn merges_duplicate_pins() {
        let mut b = HypergraphBuilder::with_unit_areas(3);
        b.add_net([0, 1, 0, 1, 2]).unwrap();
        b.add_net([2, 2]).unwrap(); // collapses to single pin -> dropped
        let h = b.build().unwrap();
        assert_eq!(h.num_nets(), 1);
        assert_eq!(h.net_size(NetId::new(0)), 3);
    }

    #[test]
    fn build_trims_buffers_to_the_kept_nets() {
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 1, 1, 0, 2]).unwrap(); // dedups to {0, 1, 2}
        b.add_net([3, 3]).unwrap(); // one distinct pin: dropped
        b.add_weighted_net([3, 2, 3], 5).unwrap(); // dedups to {3, 2}
        let h = b.build().unwrap();
        assert_eq!(h.pins(NetId::new(1)), &[ModuleId::new(3), ModuleId::new(2)]);
        assert_eq!(h.net_weights, vec![1, 5]);
        assert_eq!(h.net_pins.capacity(), 5);
        assert_eq!(h.net_offsets.capacity(), 3);
        assert_eq!(h.net_weights.capacity(), 2);
        assert!(h.validate());
    }

    #[test]
    fn dedup_stamp_reset_after_dropped_net() {
        // Regression: a dropped net must not leave stamps that suppress pins
        // of the *next* net.
        let mut b = HypergraphBuilder::with_unit_areas(3);
        b.add_net([0]).unwrap(); // dropped; stamps module 0 transiently
        b.add_net([0, 1]).unwrap(); // must still contain module 0
        let h = b.build().unwrap();
        assert_eq!(h.num_nets(), 1);
        assert_eq!(h.net_size(NetId::new(0)), 2);
    }

    #[test]
    fn rejects_out_of_range_pin() {
        let mut b = HypergraphBuilder::with_unit_areas(2);
        let err = b.add_net([0, 5]).unwrap_err();
        assert_eq!(
            err,
            BuildHypergraphError::PinOutOfRange {
                net: 0,
                pin: 5,
                num_modules: 2
            }
        );
        // Builder unchanged; can still add a valid net.
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.num_nets(), 1);
    }

    #[test]
    fn rejects_zero_area() {
        let mut b = HypergraphBuilder::new(vec![1, 0, 2]);
        b.add_net([0, 2]).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            BuildHypergraphError::ZeroArea { module: 1 }
        );
    }

    #[test]
    fn rejects_area_overflow() {
        let b = HypergraphBuilder::new(vec![u64::MAX, 2]);
        assert_eq!(b.build().unwrap_err(), BuildHypergraphError::AreaOverflow);
    }

    #[test]
    fn explicit_areas_accumulate() {
        let mut b = HypergraphBuilder::new(vec![4, 7, 11]);
        b.add_net([0, 1, 2]).unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.total_area(), 22);
        assert_eq!(h.max_area(), 11);
        assert_eq!(h.area(ModuleId::new(1)), 7);
        assert_eq!(h.areas(), &[4, 7, 11]);
    }

    #[test]
    fn empty_netlist_is_valid() {
        let h = HypergraphBuilder::with_unit_areas(0).build().unwrap();
        assert_eq!(h.num_modules(), 0);
        assert_eq!(h.num_nets(), 0);
        assert_eq!(h.max_net_size(), 0);
        assert!(h.validate());
    }

    #[test]
    fn extract_subnetlist() {
        let h = tiny();
        // Keep modules 0, 1, 2: nets {0,1,2} and {1,2} survive; {3,4} gone;
        // {0,4} collapses to one pin and vanishes.
        let (sub, back) = h.extract(&[true, true, true, false, false]).unwrap();
        assert_eq!(sub.num_modules(), 3);
        assert_eq!(sub.num_nets(), 2);
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], ModuleId::new(0));
        assert!(sub.validate());
        assert_eq!(sub.total_area(), 3);
    }

    #[test]
    fn extract_empty_and_full() {
        let h = tiny();
        let (empty, back) = h.extract(&[false; 5]).unwrap();
        assert_eq!(empty.num_modules(), 0);
        assert!(back.is_empty());
        let (full, _) = h.extract(&[true; 5]).unwrap();
        assert_eq!(full, h);
    }

    #[test]
    fn extract_rejects_bad_mask() {
        let h = tiny();
        assert_eq!(
            h.extract(&[true]).unwrap_err(),
            BuildHypergraphError::MaskLengthMismatch {
                mask_len: 1,
                num_modules: 5
            }
        );
    }

    #[test]
    fn clone_and_eq() {
        let h = tiny();
        let h2 = h.clone();
        assert_eq!(h, h2);
    }
}
