//! Pins the suite netlists the golden tests and the benchmark are built on.
//!
//! Every golden constant of the pipelines depends on these exact netlists,
//! so a generator change that alters one byte of them must show up here
//! first. The hash is FNV-1a 64 over the circuit's `write_hgr` bytes,
//! followed by each pad id's `u32` little-endian bytes, for
//! `generate_with_pads(1997)`.

use mlpart_gen::by_name;
use mlpart_hypergraph::io::write_hgr;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn netlist_hash(name: &str) -> u64 {
    let circuit = by_name(name).expect("suite circuit");
    let (h, pads) = circuit.generate_with_pads(1997);
    let mut hgr = Vec::new();
    write_hgr(&h, &mut hgr).expect("write to memory");
    pads.iter()
        .fold(fnv1a(0xcbf2_9ce4_8422_2325, &hgr), |acc, v| {
            fnv1a(acc, &v.raw().to_le_bytes())
        })
}

#[test]
fn suite_netlists_are_pinned() {
    for (name, pinned) in [
        ("syn-balu", 0x42d1_c21e_19a7_7ea8_u64),
        ("syn-s13207", 0x6e2b_d86a_ab7f_33e1),
        ("syn-industry2", 0x9040_1688_b7c5_1f2c),
        ("syn-golem3", 0x17ba_0c9e_0779_b982),
    ] {
        let got = netlist_hash(name);
        assert_eq!(got, pinned, "{name}: {got:016x}");
    }
}
