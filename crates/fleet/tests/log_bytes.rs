//! Byte pins for fleet run logs: FNV-1a of the serialized v3 log of the
//! three-node fleet at the CI seeds. The opaque fleet event lines carry
//! the frame codec's envelope grammar, so this also pins the bytes the
//! shared sanitizer and sealer produce.

use easched_core::fnv1a64;
use easched_fleet::{run_fleet, FleetSpec};

#[test]
fn three_node_fleet_logs_are_byte_pinned() {
    for (root, digest) in [
        (7u64, 0x2df0_842d_a4d0_8b38_u64),
        (23, 0x2a00_754f_16a9_c36d),
        (1009, 0x14ad_9c25_c503_db06),
    ] {
        let report = run_fleet(&FleetSpec::three_nodes(root)).expect("fleet run");
        assert_eq!(
            fnv1a64(report.log.to_text().as_bytes()),
            digest,
            "fleet root {root}"
        );
    }
}
