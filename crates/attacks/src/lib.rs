//! Spectre-family attacks run against the simulated microarchitecture —
//! the security litmus tests for the paper's threat model (§1.1).
//!
//! Each attack is a real program in the simulator's ISA: the attacker
//! trains the branch predictor, triggers transient execution with real
//! secret data, and measures timing with `rdcycle`. The harness then
//! checks whether the secret was recovered.
//!
//! Three channels, matching the paper's motivation:
//!
//! * [`spectre_v1`] — the classic bounds-check-bypass cache channel
//!   (Kocher et al.): a transient out-of-bounds load indexes a probe
//!   array; evict-and-time recovers the byte.
//! * [`spectre_rewind`] — the backwards-in-time structural-hazard
//!   channel (Fustos et al., §2.2): transient divides, gated on a secret
//!   bit, contend with an *older* in-flight divide whose completion time
//!   the attacker measures. Closed by §4.9 strictness-ordered FU
//!   scheduling.
//! * [`speculative_interference`] — the MSHR-occupancy channel (Behnia
//!   et al.): transient loads, gated on a secret bit, consume MSHRs and
//!   delay an older load. Closed by leapfrogging (§4.5).
//!
//! [`ATTACKS`] names the three in the security matrix's column order.
//! [`spectre_v1_byte`] and [`spectre_v1_string`] run the string-recovery
//! demo, one independent machine run per attempt.

mod interference;
mod rewind;
mod v1;

pub use interference::speculative_interference;
pub use rewind::spectre_rewind;
pub use v1::{spectre_v1, spectre_v1_byte, spectre_v1_string};

/// Test/debug hook: exposes the interference attack program.
#[doc(hidden)]
pub fn __intf_program_for_debug(bit: u8) -> gm_isa::Program {
    interference::program_for_debug(bit)
}

/// Test/debug hook: exposes the Spectre v1 attack program.
#[doc(hidden)]
pub fn __v1_program_for_debug(secret: u8) -> gm_isa::Program {
    v1::program_for_debug(secret)
}

use ghostminion::Scheme;

/// Outcome of one attack attempt.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// Scheme the attack ran against.
    pub scheme: &'static str,
    /// Whether the attacker recovered the secret.
    pub leaked: bool,
    /// Human-readable evidence (timings, recovered values).
    pub evidence: String,
}

/// One attack: runs against a scheme and reports whether it leaked.
pub type Attack = fn(Scheme) -> AttackOutcome;

/// The three attacks of the security matrix, in column order, each with
/// its report name.
pub const ATTACKS: [(&str, Attack); 3] = [
    ("spectre-v1", spectre_v1),
    ("rewind", spectre_rewind),
    ("interference", speculative_interference),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectre_v1_leaks_on_unsafe_baseline() {
        let o = spectre_v1(Scheme::unsafe_baseline());
        assert!(o.leaked, "unsafe must leak: {}", o.evidence);
    }

    #[test]
    fn spectre_v1_defeated_by_ghostminion() {
        let o = spectre_v1(Scheme::ghost_minion());
        assert!(!o.leaked, "GhostMinion must not leak: {}", o.evidence);
    }

    #[test]
    fn spectre_v1_defeated_by_dminion_timeless_too() {
        // Classic forward-in-time Spectre is already stopped by a wiped,
        // untimestamped minion (Fig. 9's DMinion-Timeless)...
        let o = spectre_v1(Scheme::dminion_timeless());
        assert!(!o.leaked, "{}", o.evidence);
    }

    #[test]
    fn spectre_v1_leaks_on_muontrap_base() {
        // ...but MuonTrap without flush retains speculative data past the
        // squash, so the classic channel remains for a same-address-space
        // attacker (MuonTrap targets cross-process attacks).
        let o = spectre_v1(Scheme::muontrap());
        assert!(o.leaked, "{}", o.evidence);
    }

    #[test]
    fn spectre_v1_defeated_by_muontrap_flush() {
        let o = spectre_v1(Scheme::muontrap_flush());
        assert!(!o.leaked, "{}", o.evidence);
    }

    #[test]
    fn spectre_v1_defeated_by_invisispec_and_stt() {
        for s in [
            Scheme::invisispec_spectre(),
            Scheme::invisispec_future(),
            Scheme::stt_spectre(),
            Scheme::stt_future(),
        ] {
            let o = spectre_v1(s);
            assert!(!o.leaked, "{} must not leak: {}", o.scheme, o.evidence);
        }
    }

    #[test]
    fn rewind_leaks_without_strict_fu_order() {
        let o = spectre_rewind(Scheme::ghost_minion());
        assert!(
            o.leaked,
            "GhostMinion without §4.9 FU ordering leaves the divider channel: {}",
            o.evidence
        );
    }

    #[test]
    fn rewind_closed_by_strict_fu_order() {
        let mut s = Scheme::ghost_minion();
        s.strict_fu_order = true;
        let o = spectre_rewind(s);
        assert!(!o.leaked, "{}", o.evidence);
    }

    #[test]
    fn interference_leaks_on_unsafe() {
        let o = speculative_interference(Scheme::unsafe_baseline());
        assert!(o.leaked, "{}", o.evidence);
    }

    #[test]
    fn interference_closed_by_ghostminion_leapfrogging() {
        let o = speculative_interference(Scheme::ghost_minion());
        assert!(!o.leaked, "{}", o.evidence);
    }

    #[test]
    fn string_is_its_bytes_recovered_one_by_one() {
        let scheme = Scheme::unsafe_baseline();
        let secret = b"GM";
        let bytes: Vec<u8> = secret.iter().map(|&b| spectre_v1_byte(scheme, b)).collect();
        assert_eq!(spectre_v1_string(scheme, secret), (bytes, secret.to_vec()));
    }

    #[test]
    fn string_recovery_on_unsafe() {
        let (recovered, secret) = spectre_v1_string(Scheme::unsafe_baseline(), b"GHOST");
        assert_eq!(recovered, secret, "full string must leak byte by byte");
    }
}
