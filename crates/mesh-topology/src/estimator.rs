//! Probe-based link estimation, standing in for Roofnet's ETX module.
//!
//! The paper measures pairwise delivery probabilities with ten minutes of
//! periodic ping probes before every run (§4.1.2) and feeds the same
//! estimates to all three protocols. [`LinkEstimator`] reproduces that
//! measurement process: each directed link's estimate is the empirical
//! success rate of `probes` Bernoulli trials at the true probability —
//! binomially distributed noise, exactly what a real prober sees.
//!
//! [`LinkEstimator::estimate`] probes a *static* truth matrix.
//! [`LinkEstimator::estimate_live`] is the windowed-probe mode: probe
//! rounds are spaced in time and each round samples an
//! instantaneous-delivery callback, so ETX/EOTX inputs can be measured
//! from a live, time-varying channel (`mesh_sim::channel`) rather than
//! read off the matrix — separating what the routing layer *believes*
//! from what the air *does*.

#![expect(
    clippy::indexing_slicing,
    reason = "probe-window tallies are sized to the topology's node count and indexed by validated NodeIds."
)]

use crate::{Link, NodeId, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::streams::PROBE_STREAM;

/// Configuration for the probing process.
#[derive(Clone, Copy, Debug)]
pub struct LinkEstimator {
    /// Number of probe frames per directed link (Roofnet sends one probe
    /// per second; 600 probes ≈ the paper's 10-minute warm-up).
    pub probes: u32,
    /// Links whose *estimated* delivery falls below this are dropped from
    /// the estimate, as a real prober never hears them often enough to
    /// advertise them.
    pub min_delivery: f64,
}

impl Default for LinkEstimator {
    fn default() -> Self {
        LinkEstimator {
            probes: 600,
            min_delivery: 0.05,
        }
    }
}

impl LinkEstimator {
    /// Produces the estimated topology a deployment would measure.
    ///
    /// Deterministic in `seed`. The returned topology preserves node count
    /// and positions; only delivery probabilities are perturbed.
    ///
    /// Probes only the truth topology's links — sparse meshes cost
    /// O(E · probes) RNG draws, not O(n² · probes). The draw sequence is
    /// identical to the historical row-major matrix scan, which skipped
    /// zero-probability pairs before drawing anything.
    pub fn estimate(&self, truth: &Topology, seed: u64) -> Topology {
        assert!(self.probes > 0, "need at least one probe");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut links = Vec::new();
        for l in truth.links() {
            let mut successes = 0u32;
            for _ in 0..self.probes {
                if rng.gen::<f64>() < l.delivery {
                    successes += 1;
                }
            }
            let est = successes as f64 / self.probes as f64;
            if est >= self.min_delivery {
                links.push(Link {
                    from: l.from,
                    to: l.to,
                    delivery: est,
                });
            }
        }
        let mut t = Topology::from_links(format!("{}-est", truth.name), truth.n(), links);
        if let Some(pos) = truth.positions() {
            t = t.with_positions(pos.to_vec());
        }
        t
    }

    /// Windowed probing of a live channel: `probes` rounds, one every
    /// `interval_us` simulated microseconds, each sampling
    /// `delivery_at(tx, rx, now)` for every ordered node pair (a real
    /// prober broadcasts and everyone listens — channels like shadowing
    /// can carry links the static matrix never had) and drawing one
    /// Bernoulli probe at that instantaneous probability.
    ///
    /// The estimate of a link is its success rate over the whole window —
    /// a bursty channel that averages to the static matrix yields the same
    /// beliefs in expectation, while a drifting one leaves routing behind
    /// the truth. Deterministic in `seed`; probe draws use their own
    /// stream (`seed ^ PROBE_STREAM`), independent of both the run's main
    /// RNG and whatever stream the callback's channel model owns. Links
    /// estimated below `min_delivery` are dropped, as in
    /// [`LinkEstimator::estimate`].
    ///
    /// ```
    /// use mesh_topology::estimator::LinkEstimator;
    /// use mesh_topology::generate;
    ///
    /// let truth = generate::line(2, 0.8, 0.0, 30.0);
    /// let est = LinkEstimator { probes: 2000, min_delivery: 0.05 };
    /// // A static closure reduces to the classic estimator's behaviour.
    /// let believed = est.estimate_live(&truth, 7, 1_000, |tx, rx, _now| {
    ///     truth.delivery(tx, rx)
    /// });
    /// assert!((believed.delivery(0.into(), 1.into()) - 0.8).abs() < 0.05);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `probes` is zero.
    pub fn estimate_live(
        &self,
        truth: &Topology,
        seed: u64,
        interval_us: u64,
        delivery_at: impl FnMut(NodeId, NodeId, u64) -> f64,
    ) -> Topology {
        let n = truth.n();
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| {
                (0..n)
                    .filter(move |&j| j != i)
                    .map(move |j| (NodeId(i), NodeId(j)))
            })
            .collect();
        self.estimate_live_candidates(truth, seed, interval_us, &pairs, delivery_at)
    }

    /// Windowed probing restricted to the given ordered `candidates`
    /// (distinct pairs; any order — each round probes them in slice
    /// order).
    ///
    /// This is the sparse-mesh fast path: when the channel can say which
    /// pairs *might* ever deliver (its static links plus `may_reach`
    /// extensions), probing only those keeps the window at
    /// O(candidates · probes) draws. The caller must pass a superset of
    /// every pair the callback can report non-zero for — unprobed pairs
    /// are simply never heard, exactly as a real prober never hears a
    /// node outside radio range. With the full ordered-pair list this is
    /// [`LinkEstimator::estimate_live`], draw for draw.
    ///
    /// # Panics
    ///
    /// Panics when `probes` is zero or a candidate pair repeats.
    pub fn estimate_live_candidates(
        &self,
        truth: &Topology,
        seed: u64,
        interval_us: u64,
        candidates: &[(NodeId, NodeId)],
        mut delivery_at: impl FnMut(NodeId, NodeId, u64) -> f64,
    ) -> Topology {
        assert!(self.probes > 0, "need at least one probe");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ PROBE_STREAM);
        let mut successes = vec![0u32; candidates.len()];
        for round in 0..self.probes {
            let now = round as u64 * interval_us;
            for (k, &(i, j)) in candidates.iter().enumerate() {
                let p = delivery_at(i, j, now);
                if rng.gen::<f64>() < p {
                    successes[k] += 1;
                }
            }
        }
        let mut links = Vec::new();
        for (k, &(i, j)) in candidates.iter().enumerate() {
            let est = successes[k] as f64 / self.probes as f64;
            if est >= self.min_delivery {
                links.push(Link {
                    from: i,
                    to: j,
                    delivery: est,
                });
            }
        }
        let mut t = Topology::from_links(format!("{}-est", truth.name), truth.n(), links);
        if let Some(pos) = truth.positions() {
            t = t.with_positions(pos.to_vec());
        }
        t
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::generate;

    #[test]
    fn estimates_converge_with_many_probes() {
        let truth = generate::testbed(1);
        let est = LinkEstimator {
            probes: 20_000,
            min_delivery: 0.05,
        }
        .estimate(&truth, 99);
        for l in truth.links() {
            let e = est.delivery(l.from, l.to);
            assert!(
                (e - l.delivery).abs() < 0.02,
                "estimate {e} far from truth {} on {:?}",
                l.delivery,
                (l.from, l.to)
            );
        }
    }

    #[test]
    fn estimates_are_noisy_with_few_probes() {
        let truth = generate::testbed(1);
        let est = LinkEstimator {
            probes: 30,
            min_delivery: 0.0,
        }
        .estimate(&truth, 7);
        // At 30 probes the estimates quantize to 1/30 steps; at least one
        // link must differ from truth.
        let any_diff = truth
            .links()
            .any(|l| (est.delivery(l.from, l.to) - l.delivery).abs() > 1e-9);
        assert!(any_diff);
    }

    #[test]
    fn deterministic_in_seed() {
        let truth = generate::testbed(2);
        let e = LinkEstimator::default();
        let a = e.estimate(&truth, 5);
        let b = e.estimate(&truth, 5);
        assert_eq!(a.matrix(), b.matrix());
        let c = e.estimate(&truth, 6);
        assert_ne!(a.matrix(), c.matrix());
    }

    #[test]
    fn preserves_positions_and_structure() {
        let truth = generate::testbed(3);
        let est = LinkEstimator::default().estimate(&truth, 1);
        assert_eq!(est.n(), truth.n());
        assert!(est.positions().is_some());
        // No estimated link where none exists.
        for i in truth.nodes() {
            for j in truth.nodes() {
                if truth.delivery(i, j) == 0.0 {
                    assert_eq!(est.delivery(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn windowed_probing_averages_a_flapping_link() {
        // The link alternates 1.0 / 0.0 every second; the window mean is 0.5.
        let truth = generate::line(1, 0.9, 0.0, 30.0);
        let est = LinkEstimator {
            probes: 4000,
            min_delivery: 0.05,
        };
        let believed = est.estimate_live(&truth, 3, 1_000_000, |_, _, now| {
            if (now / 1_000_000).is_multiple_of(2) {
                1.0
            } else {
                0.0
            }
        });
        let e = believed.delivery(crate::NodeId(0), crate::NodeId(1));
        assert!((e - 0.5).abs() < 0.02, "windowed mean {e} should be ≈ 0.5");
    }

    #[test]
    fn windowed_probing_is_deterministic_in_seed() {
        let truth = generate::testbed(1);
        let est = LinkEstimator {
            probes: 120,
            min_delivery: 0.05,
        };
        let probe =
            |t: &Topology, seed| est.estimate_live(t, seed, 1_000, |tx, rx, _| t.delivery(tx, rx));
        let a = probe(&truth, 9);
        let b = probe(&truth, 9);
        let c = probe(&truth, 10);
        assert_eq!(a.matrix(), b.matrix());
        assert_ne!(a.matrix(), c.matrix());
    }

    #[test]
    fn windowed_probing_hears_links_beyond_the_matrix() {
        // The live channel carries a link the static matrix lacks.
        let truth = Topology::from_matrix("bare", vec![vec![0.0, 0.9], vec![0.0, 0.0]]);
        let est = LinkEstimator {
            probes: 400,
            min_delivery: 0.05,
        };
        let believed = est.estimate_live(&truth, 1, 1_000, |_, _, _| 0.8);
        assert!(believed.delivery(crate::NodeId(1), crate::NodeId(0)) > 0.7);
    }

    #[test]
    fn candidate_probing_only_hears_candidates() {
        let truth = generate::line(2, 0.8, 0.0, 30.0);
        let est = LinkEstimator {
            probes: 500,
            min_delivery: 0.05,
        };
        let cands = vec![(NodeId(0), NodeId(1))];
        let believed = est
            .estimate_live_candidates(&truth, 3, 1_000, &cands, |tx, rx, _| truth.delivery(tx, rx));
        assert!(believed.delivery(NodeId(0), NodeId(1)) > 0.7);
        // Pairs outside the candidate set are never probed, even though
        // the callback would report them as live.
        assert_eq!(believed.delivery(NodeId(1), NodeId(0)), 0.0);
        assert_eq!(believed.delivery(NodeId(1), NodeId(2)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_panics() {
        let truth = generate::motivating();
        LinkEstimator {
            probes: 0,
            min_delivery: 0.0,
        }
        .estimate(&truth, 0);
    }
}
