//! MPC-model compliance: the algorithms must run inside the strongly
//! sublinear memory constraints — and the strict cluster must *reject*
//! configurations that cannot (failure injection).

use dgo::core::{complete_layering, orient, Params};
use dgo::graph::generators::{gnm, star, Family};
use dgo::local::direct_peeling_mpc;
use dgo::mpc::{ClusterConfig, MpcError};

#[test]
fn strict_metering_passes_for_all_families() {
    // complete_layering runs with strict = true internally: success is the
    // compliance certificate. Also sanity-check the reported peaks.
    for family in Family::ALL {
        let g = family.generate(1500, 5);
        let params = Params::practical(1500);
        let out = complete_layering(&g, &params).unwrap_or_else(|e| panic!("{family}: {e}"));
        let s = params.local_memory(g.num_vertices());
        assert!(
            out.metrics.peak_machine_memory <= s,
            "{family}: peak {} exceeds S = {s}",
            out.metrics.peak_machine_memory
        );
        assert!(
            out.metrics.max_round_load <= s,
            "{family}: round load over S"
        );
        assert_eq!(out.metrics.violations, 0, "{family}: violations recorded");
    }
}

#[test]
fn memory_scales_sublinearly() {
    // Peak machine memory must track n^delta, not n.
    let params = Params::practical(0);
    let small = complete_layering(&gnm(1000, 3000, 1), &params).unwrap();
    let large = complete_layering(&gnm(16000, 48000, 1), &params).unwrap();
    let ratio =
        large.metrics.peak_machine_memory as f64 / small.metrics.peak_machine_memory.max(1) as f64;
    // n grew 16x; sqrt-scaling predicts ~4x; allow up to 8x.
    assert!(ratio < 8.0, "memory scaled superlinearly: {ratio}");
}

#[test]
fn starved_cluster_rejects_with_capacity_error() {
    let g = gnm(800, 2400, 3);
    let cfg = ClusterConfig::new(2, 8); // absurdly small
    let err = direct_peeling_mpc(&g, 4, 0.5, cfg).unwrap_err();
    assert!(
        matches!(
            err,
            MpcError::CapacityExceeded { .. } | MpcError::MemoryExceeded { .. }
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn relaxed_cluster_records_instead_of_failing() {
    let g = star(500);
    let cfg = ClusterConfig::new(2, 16).relaxed();
    let r = direct_peeling_mpc(&g, 1, 0.5, cfg).unwrap();
    assert!(
        r.metrics.violations > 0,
        "starved relaxed cluster must log violations"
    );
    assert!(r.layering.is_complete());
}

#[test]
fn global_memory_stays_near_linear() {
    for family in [Family::SparseGnm, Family::Tree] {
        let g = family.generate(4000, 2);
        let params = Params::practical(4000);
        let r = orient(&g, &params).unwrap();
        let linear = g.num_edges() + g.num_vertices();
        // Õ(m + n): allow a generous constant+log factor over m+n, but make
        // sure it is far below n^2.
        assert!(
            r.metrics.peak_global_memory < 200 * linear,
            "{family}: global memory {} vs m+n = {linear}",
            r.metrics.peak_global_memory
        );
    }
}
