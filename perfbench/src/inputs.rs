//! Input generation: everything the benchmark hands the library is made
//! here from the `--seed` argument, and nothing else.

use sttgpu_core::LlcPolicy;
use sttgpu_experiments::L2Choice;
use sttgpu_sim::Workload;
use sttgpu_workloads::suite;

/// Seed under which every suite member keeps its built-in seed, so the
/// `gpu-suite` figures can be checked against `results/fig8.csv`.
pub const BUILTIN_SEED: u64 = 0;

/// Write-heavy members replayed by `llc-write` (measured LLC write share
/// under C1: lbm 89 %, nw 76 %, stencil 75 %, hotspot 71 %, gaussian 70 %).
pub const WRITE_SET: [&str; 5] = ["lbm", "nw", "stencil", "hotspot", "gaussian"];

/// Read-heavy members replayed by `llc-read` (write share: sad 7 %,
/// streamcluster 7 %, bfs 28 %, tpacf 30 %).
pub const READ_SET: [&str; 4] = ["sad", "streamcluster", "bfs", "tpacf"];

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A member's run seed under the benchmark seed: its built-in seed for
/// [`BUILTIN_SEED`], otherwise the built-in seed mixed with the argument.
pub fn member_seed(builtin: u64, seed: u64) -> u64 {
    if seed == BUILTIN_SEED {
        builtin
    } else {
        builtin ^ splitmix64(seed)
    }
}

/// The 16 suite members under `seed`, at the reference scale
/// `results/fig8.csv` was produced at.
pub fn suite_members(seed: u64) -> Vec<Workload> {
    suite::all()
        .into_iter()
        .map(|mut w| {
            w.seed = member_seed(w.seed, seed);
            w
        })
        .collect()
}

/// The named members under `seed`, in the order given.
pub fn members_named(names: &[&str], seed: u64) -> Vec<Workload> {
    let all = suite_members(seed);
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|w| w.name == *n)
                .expect("stream sets name suite members")
                .clone()
        })
        .collect()
}

/// One `gpu-suite` operation: a member on a configuration under a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteOp {
    /// Index into the member list.
    pub member: usize,
    /// Table 2 configuration.
    pub choice: L2Choice,
    /// Runtime LLC policy (only two-part configurations have one).
    pub policy: LlcPolicy,
}

/// The `gpu-suite` pass: every member on every Table 2 configuration, then
/// every member on C1 under each adaptive policy — 112 operations for 16
/// members.
pub fn suite_ops(members: usize) -> Vec<SuiteOp> {
    let mut ops = Vec::new();
    for member in 0..members {
        for choice in L2Choice::ALL {
            ops.push(SuiteOp {
                member,
                choice,
                policy: LlcPolicy::Fixed,
            });
        }
    }
    for policy in [LlcPolicy::AdaptiveRetention, LlcPolicy::AdaptiveWays] {
        for member in 0..members {
            ops.push(SuiteOp {
                member,
                choice: L2Choice::TwoPartC1,
                policy,
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::digest_of;

    #[test]
    fn generation_is_deterministic_and_seed_dependent() {
        assert_eq!(digest_of(&suite_members(7)), digest_of(&suite_members(7)));
        assert_ne!(digest_of(&suite_members(7)), digest_of(&suite_members(8)));
        let seeds: std::collections::HashSet<u64> =
            suite_members(7).iter().map(|w| w.seed).collect();
        assert_eq!(seeds.len(), 16, "members keep distinct seeds");
    }

    #[test]
    fn builtin_seed_keeps_the_suite_as_shipped() {
        assert_eq!(suite_members(BUILTIN_SEED), suite::all());
    }

    #[test]
    fn pass_covers_every_member_config_and_adaptive_policy() {
        let ops = suite_ops(16);
        assert_eq!(ops.len(), 112);
        let adaptive = ops.iter().filter(|o| o.policy != LlcPolicy::Fixed).count();
        assert_eq!(adaptive, 32);
        assert!(members_named(&WRITE_SET, 3)
            .iter()
            .zip(WRITE_SET)
            .all(|(w, n)| w.name == n));
    }
}
