//! Output checks on the records a workload produces, and the records
//! digest a speed-only change must leave untouched.

use more_scenario::RunRecord;

/// Whether a completed flow of `protocol` has delivered every packet.
/// Srcr has no end-to-end recovery: its flow completes once every
/// packet is delivered or dropped at the MAC retry limit.
pub fn delivers_all(protocol: &str) -> bool {
    !protocol.starts_with("Srcr")
}

/// Checks one record against the flows it was offered: every flow
/// delivered at most its `packets`, a completed flow of a protocol that
/// [`delivers_all`] delivered exactly `packets`, and every throughput
/// is finite and non-negative.
pub fn check_record(r: &RunRecord, packets: usize) -> Result<(), String> {
    if r.flows.is_empty() {
        return Err(format!("{} run has no flows", r.protocol));
    }
    for (i, f) in r.flows.iter().enumerate() {
        let at = || format!("{} flow {i} ({} -> {:?})", r.protocol, f.src, f.dsts);
        if f.delivered > packets {
            return Err(format!(
                "{}: delivered {} > offered {packets}",
                at(),
                f.delivered
            ));
        }
        if f.completed && f.delivered != packets && delivers_all(&r.protocol) {
            return Err(format!(
                "{}: completed with {} of {packets} packets",
                at(),
                f.delivered
            ));
        }
        if !(f.throughput_pps.is_finite() && f.throughput_pps >= 0.0) {
            return Err(format!("{}: throughput {}", at(), f.throughput_pps));
        }
    }
    Ok(())
}

/// FNV-1a 64 over every record's JSON line (newline-terminated), in
/// order. Stable across toolchains, unlike the std hasher.
pub fn digest<'a>(records: impl IntoIterator<Item = &'a RunRecord>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for b in r.to_json_line().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::NodeId;
    use more_scenario::FlowRecord;

    fn record(delivered: usize, completed: bool, tput: f64) -> RunRecord {
        RunRecord {
            scenario: "synthetic".into(),
            protocol: "MORE".into(),
            topology: "testbed".into(),
            channel: "static".into(),
            queue: "unbounded".into(),
            param: None,
            value: None,
            seed: 1,
            traffic_index: 0,
            flows: vec![FlowRecord {
                src: NodeId(0),
                dsts: vec![NodeId(5)],
                delivered,
                throughput_pps: tput,
                queue_drops: 0,
                completed,
                completed_at_s: completed.then_some(2.0),
                started_at_s: None,
                stopped_at_s: None,
                latency_s: None,
            }],
            total_tx: 100,
            queue_drops: 0,
            fairness: 1.0,
            concurrency: 0.0,
            sim_time_s: 2.0,
        }
    }

    #[test]
    fn accepts_a_consistent_record() {
        assert!(check_record(&record(32, true, 16.0), 32).is_ok());
        assert!(check_record(&record(10, false, 5.0), 32).is_ok());
    }

    #[test]
    fn rejects_delivered_beyond_offered() {
        let err = check_record(&record(33, false, 16.5), 32).unwrap_err();
        assert!(err.contains("delivered 33 > offered 32"), "{err}");
    }

    #[test]
    fn rejects_a_short_completion_and_bad_throughput() {
        assert!(check_record(&record(31, true, 15.5), 32).is_err());
        let srcr = RunRecord {
            protocol: "Srcr".into(),
            ..record(31, true, 15.5)
        };
        assert!(check_record(&srcr, 32).is_ok(), "Srcr completes lossy");
        assert!(check_record(&record(10, false, f64::NAN), 32).is_err());
        assert!(check_record(&record(10, false, -1.0), 32).is_err());
    }

    #[test]
    fn digest_sees_every_byte_and_the_order() {
        let (a, b) = (record(32, true, 16.0), record(31, false, 15.5));
        assert_eq!(digest([&a, &b]), digest([&a.clone(), &b.clone()]));
        assert_ne!(digest([&a, &b]), digest([&b, &a]));
        assert_ne!(digest([&a]), digest([&record(32, true, 16.25)]));
    }
}
