//! Negative battery for every wire decoder a hostile or corrupted peer can
//! reach: [`dqma::cluster::ProgramSpec`] (the `program` control line),
//! [`dqma::cluster::NodeConfig`] (the node argv), and the service specs
//! ([`dqma::service::InstanceSpec`] / [`dqma::service::JobSpec`], the
//! journal and HTTP wire forms).
//!
//! The contract under test is uniform: **every** malformed frame —
//! truncated at any token boundary, corrupted at any token, or carrying an
//! oversized count — must come back as a structured `Err`, never a panic
//! and never an attacker-sized allocation. The tests are table-driven over
//! real encodings, so they track the codecs as they grow.

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use dqma::chain::ChainCheat;
use dqma::cluster::{NodeConfig, ProgramSpec};
use dqma::eq_path::EqPathProtocol;
use dqma::eq_tree::EqTreeProtocol;
use dqma::relay::RelayEqProtocol;
use dqma::service::{InstanceSpec, JobSpec};
use netsim::topology;

/// One real encoding per program shape, produced by the actual encoders so
/// the negative tables can never drift from the wire format.
fn sample_program_specs() -> Vec<(&'static str, String)> {
    let proto = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 7), 4);
    let x = BitString::from_u64(3, 4);
    let y = BitString::from_u64(12, 4);
    let chain = ProgramSpec::from_chain(&proto.net_program(&x, &y, ChainCheat::Interpolate));

    let relay_proto = RelayEqProtocol::with_spacing(4, 6, 2, 3);
    let rx = BitString::from_u64(11, 4);
    let relays = vec![rx.clone(); relay_proto.relay_points().len()];
    let relay =
        ProgramSpec::from_relay(&relay_proto.net_program(&rx, &rx, &relays, ChainCheat::AllLeft));

    let g = topology::spider(3, 1);
    let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
    let tree_proto = EqTreeProtocol::with_scheme(
        &g,
        &terminals,
        FingerprintScheme::with_parameters(4, 1, 1, 5),
        4,
    );
    let tx = BitString::from_u64(9, 4);
    let inputs = vec![tx.clone(); terminals.len()];
    let proof = tree_proto.uniform_proof(&tx);
    let tree = ProgramSpec::from_tree(&tree_proto.net_program(&inputs, &proof));

    vec![
        ("chain", chain.encode()),
        ("relay", relay.encode()),
        ("tree", tree.encode()),
    ]
}

#[test]
fn program_specs_roundtrip_through_their_wire_form() {
    for (label, line) in sample_program_specs() {
        let decoded = ProgramSpec::decode(&line)
            .unwrap_or_else(|e| panic!("{label}: own encoding must decode, got {e}"));
        assert_eq!(decoded.encode(), line, "{label}: decode∘encode is identity");
    }
}

/// Truncating a valid encoding at *every* whitespace boundary must yield a
/// structured error (or, for a prefix that happens to be complete, a
/// successful parse) — never a panic. This sweeps the classic torn-frame
/// shape: a peer dying mid-write.
#[test]
fn truncation_at_every_token_boundary_is_an_error_never_a_panic() {
    for (label, line) in sample_program_specs() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for cut in 0..tokens.len() {
            let prefix = tokens[..cut].join(" ");
            let result = std::panic::catch_unwind(|| ProgramSpec::decode(&prefix));
            let decoded = result
                .unwrap_or_else(|_| panic!("{label}: decode panicked on {cut}-token truncation"));
            assert!(
                decoded.is_err(),
                "{label}: {cut}-token prefix of a {}-token spec must not decode",
                tokens.len()
            );
        }
    }
}

/// Corrupting any single token must be a structured error or a valid
/// different spec — never a panic. Each token is replaced by several
/// hostile substitutes (non-numeric, negative, non-hex, huge).
#[test]
fn single_token_corruption_is_an_error_never_a_panic() {
    let substitutes = ["zz", "-1", "18446744073709551616", "NaN", ":", "1e999", ""];
    for (label, line) in sample_program_specs() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for i in 0..tokens.len() {
            for sub in substitutes {
                let mut mutated: Vec<&str> = tokens.clone();
                mutated[i] = sub;
                let frame = mutated.join(" ");
                let result = std::panic::catch_unwind(|| ProgramSpec::decode(&frame));
                assert!(
                    result.is_ok(),
                    "{label}: decode panicked with token {i} replaced by {sub:?}"
                );
            }
        }
    }
}

/// Attacker-controlled length prefixes far beyond any real fleet must be
/// refused up front — before sizing any allocation by them. (The cap is
/// `dqma::cluster` wire policy, 2^16; these counts are ~2^30 and would be
/// multi-gigabyte allocations if honoured.)
#[test]
fn oversized_counts_are_refused_before_allocation() {
    let hostile = [
        "chain 1073741824 3",
        "relay 1073741824 3 0",
        // Boundaries implying a single segment of ~2^30 tables.
        "relay 1 3 0 1073741824",
        "tree 1073741824 3 0",
        "tree 2 3 1073741824",
        "tree 1 3 0 i x 1073741824",
        "tree 1 3 0 i x 1 0:x 1073741824",
    ];
    for frame in hostile {
        let err = ProgramSpec::decode(frame).expect_err("oversized count must be refused");
        assert!(
            err.contains("cap") || err.contains("count"),
            "unexpected error {err:?} for {frame:?}"
        );
    }
    // Non-monotone relay boundaries are the other allocation-bomb shape:
    // segment length is a subtraction that must be checked, not wrapped.
    assert!(ProgramSpec::decode("relay 1 3 5 2").is_err());
    assert!(ProgramSpec::decode("relay 2 3 0 4 1").is_err());
}

#[test]
fn unknown_kinds_and_bad_roles_are_structured_errors() {
    for frame in [
        "",
        "warp 1 2 3",
        "tree 1 3 0 q",
        "tree 1 3 0 l zz",
        "tree 1 3 0 i x 1 5 0",    // child token missing ':'
        "tree 1 3 0 i x 1 5:zz 0", // bad shift
        "tree 1 3 0 i y 1 5:x 0",  // bad parent token
    ] {
        let result = std::panic::catch_unwind(|| ProgramSpec::decode(frame));
        let decoded = result.unwrap_or_else(|_| panic!("decode panicked on {frame:?}"));
        assert!(decoded.is_err(), "{frame:?} must not decode");
    }
}

/// Deterministic mutation fuzz: byte-level corruption (flips, deletions,
/// duplications) of real encodings must never panic the decoder. A simple
/// LCG drives the mutations so failures replay exactly.
#[test]
fn mutation_fuzz_never_panics_the_decoder() {
    let mut state: u64 = 0x5EED_CAFE;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for (label, line) in sample_program_specs() {
        let bytes = line.as_bytes().to_vec();
        for _ in 0..400 {
            let mut mutated = bytes.clone();
            match next() % 3 {
                0 => {
                    // Flip a byte to a printable character.
                    let i = next() as usize % mutated.len();
                    mutated[i] = b' ' + (next() % 94) as u8;
                }
                1 => {
                    // Delete a span.
                    let i = next() as usize % mutated.len();
                    let len = 1 + next() as usize % 8;
                    mutated.drain(i..(i + len).min(mutated.len()));
                }
                _ => {
                    // Duplicate a span (token smearing).
                    let i = next() as usize % mutated.len();
                    let len = 1 + next() as usize % 8;
                    let span: Vec<u8> = mutated[i..(i + len).min(mutated.len())].to_vec();
                    let at = next() as usize % (mutated.len() + 1);
                    for (k, b) in span.into_iter().enumerate() {
                        mutated.insert(at + k, b);
                    }
                }
            }
            let Ok(frame) = String::from_utf8(mutated) else {
                continue;
            };
            let result = std::panic::catch_unwind(|| {
                let _ = ProgramSpec::decode(&frame);
            });
            assert!(result.is_ok(), "{label}: decoder panicked on {frame:?}");
        }
    }
}

#[test]
fn node_argv_negatives_are_structured_errors() {
    let valid: Vec<String> = [
        "127.0.0.1:9000",
        "2",
        "5",
        "1000",
        "4096",
        "5",
        "3fd0000000000000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert!(
        NodeConfig::from_args(&valid).is_ok(),
        "baseline argv parses"
    );

    // Wrong arity in both directions.
    for n in [0, 1, 6, 8] {
        let args: Vec<String> = valid.iter().take(n.min(7)).cloned().collect();
        let args = if n > 7 {
            let mut a = valid.clone();
            a.push("extra".to_string());
            a
        } else {
            args
        };
        assert!(NodeConfig::from_args(&args).is_err(), "arity {n} must fail");
    }
    // Each numeric slot corrupted in turn.
    for slot in 1..7 {
        let mut args = valid.clone();
        args[slot] = "not-a-number".to_string();
        assert!(
            NodeConfig::from_args(&args).is_err(),
            "corrupt slot {slot} must fail"
        );
    }
}

/// The service-layer wire forms obey the same contract: hostile instance
/// and job encodings (journal lines, HTTP bodies) are structured errors.
#[test]
fn service_spec_wire_negatives_are_structured_errors() {
    // Truncation sweep over a canonical instance encoding.
    let spec = InstanceSpec::EqPath {
        r: 8,
        bits: 6,
        x: 0b101101,
        y: 0b101101,
        scheme_seed: 11,
        reps: 2,
        cheat: dqma::service::CheatSpec::Interpolate,
    };
    let line = spec.encode();
    let tokens: Vec<&str> = line.split_whitespace().collect();
    for cut in 0..tokens.len() {
        let prefix = tokens[..cut].join(" ");
        assert!(
            InstanceSpec::decode(&prefix).is_err(),
            "truncated instance {prefix:?} must not decode"
        );
    }
    assert_eq!(InstanceSpec::decode(&line).unwrap(), spec);

    // Out-of-cap parameters are refused at decode time, not at compile
    // time: the decoder is the admission boundary.
    for frame in [
        "eq_path 9999999 6 2d 2d 11 2 interpolate", // r over cap
        "eq_path 8 64 2d 2d 11 2 interpolate",      // bits over cap
        "eq_path 8 6 ff 2d 11 2 interpolate",       // x wider than bits
        "eq_path 8 6 2d 2d 11 999 interpolate",     // reps over cap
        "eq_tree 99 1 4 9 6 5 2",                   // arms over cap
        "relay 1 4 b b 3 all_left",                 // r under relay minimum
    ] {
        assert!(
            InstanceSpec::decode(frame).is_err(),
            "{frame:?} must not decode"
        );
    }

    // Hostile JSON bodies: structured errors, never panics.
    for body in [
        "",
        "{",
        "[1,2",
        "{\"instance\":17,\"trials\":1}",
        "{\"instance\":{\"protocol\":\"eq_path\",\"r\":8,\"bits\":6,\"x\":\"abc\",\"y\":\"110101\"},\"trials\":1}",
        "{\"instance\":{\"protocol\":\"eq_path\",\"r\":8,\"bits\":6,\"x\":\"101\",\"y\":\"110101\"},\"trials\":1}",
        "{\"instance\":{\"protocol\":\"eq_path\",\"r\":8,\"bits\":6,\"x\":\"101101\",\"y\":\"110101\"},\"trials\":-3}",
        "{\"instance\":{\"protocol\":\"eq_path\",\"r\":8,\"bits\":6,\"x\":\"101101\",\"y\":\"110101\"},\"trials\":1.5}",
        // Integers at or above 2^53 do not survive the trip through f64:
        // 2^53 + 1 would run as 2^53, and 2^64 would saturate to u64::MAX.
        "{\"instance\":{\"protocol\":\"eq_path\",\"r\":8,\"bits\":6,\"x\":\"101101\",\"y\":\"110101\"},\"trials\":1,\"seed\":9007199254740993}",
        "{\"instance\":{\"protocol\":\"eq_path\",\"r\":8,\"bits\":6,\"x\":\"101101\",\"y\":\"110101\",\"scheme_seed\":18446744073709551616},\"trials\":1}",
    ] {
        let outcome = dqma::service::json::parse(body).and_then(|p| JobSpec::from_json(&p));
        assert!(outcome.is_err(), "hostile body {body:?} must not produce a job");
    }
}
