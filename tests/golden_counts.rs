//! Golden counts: pins the simulated behaviour of a few seeded testbed
//! cells to exact values.
//!
//! Hot-path refactors of the simulator, the TCP endpoint or the probe
//! must leave every simulated cell bit-identical. The determinism
//! suites only compare a build against itself; these constants compare
//! it against the behaviour the values were recorded from, so any change
//! that alters what is simulated fails here loudly. The values were
//! recorded with the earlier map-based TCP segment bookkeeping and RTT
//! tap, before they became front-retiring deques. Only update a value
//! when a change is *meant* to alter simulated behaviour, and say so.

use tcp_congestion_signatures::netsim::FaultPlan;
use tcp_congestion_signatures::prelude::*;

/// Everything pinned for one cell. Floating-point features are compared
/// by bit pattern.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events: u64,
    segments_sent: u64,
    retransmits: u64,
    rtt_samples: usize,
    feature_samples: usize,
    norm_diff_bits: u64,
    cov_bits: u64,
    ss_first_data_ns: Option<u64>,
    ss_end_ns: Option<u64>,
    ss_bytes_acked: u64,
}

fn golden(cfg: &TestbedConfig) -> Golden {
    let r = run_test(cfg);
    let stats = r.conn_stats.expect("test flow has server-side stats");
    let f = r.features.expect("cell yields features");
    Golden {
        events: r.events,
        segments_sent: stats.segments_sent,
        retransmits: stats.retransmits,
        rtt_samples: stats.rtt_samples.len(),
        feature_samples: f.samples,
        norm_diff_bits: f.norm_diff.to_bits(),
        cov_bits: f.cov.to_bits(),
        ss_first_data_ns: r.slow_start.first_data_at.map(|t| t.as_nanos()),
        ss_end_ns: r.slow_start.end.map(|t| t.as_nanos()),
        ss_bytes_acked: r.slow_start.bytes_acked,
    }
}

/// Reordering, duplication and loss on the access link: exercises the
/// receiver's out-of-order reassembly and the sender's recovery paths.
fn impaired(seed: u64) -> TestbedConfig {
    TestbedConfig::scaled(AccessParams::figure1(), seed).with_access_fault(
        FaultPlan::new()
            .reorder(0.02, SimDuration::from_millis(3))
            .duplicate(0.01)
            .iid_loss(0.005),
    )
}

#[test]
fn self_induced_cell_is_pinned() {
    let got = golden(&TestbedConfig::scaled(AccessParams::figure1(), 7));
    assert_eq!(
        got,
        Golden {
            events: 150277,
            segments_sent: 6985,
            retransmits: 417,
            rtt_samples: 5801,
            feature_samples: 406,
            norm_diff_bits: 4605493179592878124,
            cov_bits: 4602080432359055860,
            ss_first_data_ns: Some(2027438959),
            ss_end_ns: Some(2331581543),
            ss_bytes_acked: 587888,
        }
    );
}

#[test]
fn external_cell_is_pinned() {
    let got = golden(&TestbedConfig::scaled(AccessParams::figure1(), 7).externally_congested());
    assert_eq!(
        got,
        Golden {
            events: 1392787,
            segments_sent: 758,
            retransmits: 43,
            rtt_samples: 611,
            feature_samples: 10,
            norm_diff_bits: 4590510549133145066,
            cov_bits: 4582652700410312010,
            ss_first_data_ns: Some(2070334985),
            ss_end_ns: Some(2222746767),
            ss_bytes_acked: 14480,
        }
    );
}

#[test]
fn impaired_sack_cell_is_pinned() {
    let got = golden(&impaired(11));
    assert_eq!(
        got,
        Golden {
            events: 74548,
            segments_sent: 2624,
            retransmits: 64,
            rtt_samples: 1884,
            feature_samples: 221,
            norm_diff_bits: 4604120878824536722,
            cov_bits: 4599379907717646630,
            ss_first_data_ns: Some(2028192633),
            ss_end_ns: Some(2224516407),
            ss_bytes_acked: 322904,
        }
    );
}

#[test]
fn impaired_newreno_cell_is_pinned() {
    let mut cfg = impaired(11);
    cfg.tcp.sack = false;
    let got = golden(&cfg);
    assert_eq!(
        got,
        Golden {
            events: 114738,
            segments_sent: 6037,
            retransmits: 130,
            rtt_samples: 344,
            feature_samples: 221,
            norm_diff_bits: 4604120878824536722,
            cov_bits: 4599379907717646630,
            ss_first_data_ns: Some(2028192633),
            ss_end_ns: Some(2224516407),
            ss_bytes_acked: 322904,
        }
    );
}
