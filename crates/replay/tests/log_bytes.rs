//! Byte pins for the run-log writer. The round-trip tests elsewhere only
//! check that `to_text` agrees with `from_text`; these pin the exact
//! bytes the storms serialize to (FNV-1a of the whole text, plus the
//! length for the overload logs), so a change to the writer or to the
//! storm drivers that moves a single byte fails here.

use easched_core::fnv1a64;
use easched_replay::{record_chaos_storm, record_overload_storm, OverloadSpec, StormSpec};

#[test]
fn overload_storm_logs_are_byte_pinned() {
    for (root, digest, len) in [
        (7u64, 0xc6f3_a3c1_fb84_ece0_u64, 2_924_550_usize),
        (23, 0x7fde_a806_f5f0_52d5, 2_964_756),
        (1009, 0x5da3_a36b_580e_f3ba, 2_968_910),
    ] {
        let text = record_overload_storm(&OverloadSpec::new(root))
            .log
            .to_text();
        assert_eq!(text.len(), len, "overload root {root} length");
        assert_eq!(
            fnv1a64(text.as_bytes()),
            digest,
            "overload root {root} digest"
        );
    }
}

#[test]
fn chaos_storm_logs_are_byte_pinned() {
    for (root, digest) in [
        (7u64, 0x5f02_8a3c_82c7_f27d_u64),
        (23, 0xa388_a5f5_c22c_970a),
        (1009, 0x6e00_dd1e_881f_73cc),
    ] {
        let text = record_chaos_storm(&StormSpec::new(root)).log.to_text();
        assert_eq!(fnv1a64(text.as_bytes()), digest, "chaos root {root}");
    }
}
