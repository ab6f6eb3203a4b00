//! Negative battery for every wire decoder a hostile or corrupted peer can
//! reach: [`dqma::cluster::ProgramSpec`] (the `program` control line),
//! [`dqma::cluster::NodeConfig`] (the node argv), and the service specs
//! ([`dqma::service::InstanceSpec`] / [`dqma::service::JobSpec`], whose one
//! JSON form is both the HTTP body and the journal's `job` line).
//!
//! The contract under test is uniform: **every** malformed frame —
//! truncated at any token boundary, corrupted at any token, or carrying an
//! oversized count, an out-of-range id or an out-of-cap parameter — must
//! come back as a structured `Err`, never a panic and never an
//! attacker-sized allocation. A program frame that does decode must also
//! run: one round of it may fault, but no node may panic on it. The tests
//! are table-driven over real encodings, so they track the codecs as they
//! grow.

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use dqma::chain::ChainCheat;
use dqma::cluster::{NodeConfig, ProgramSpec};
use dqma::eq_path::EqPathProtocol;
use dqma::eq_tree::EqTreeProtocol;
use dqma::net::{run_round, RoundProgram};
use dqma::relay::RelayEqProtocol;
use dqma::service::JobSpec;
use dqma::trials::BlockRng;
use netsim::{topology, FaultCause, FaultReport, LocalChannelTransport, RetryPolicy, RoundOutcome};

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

/// Runs one round of a decoded program over the in-process transport, one
/// mailbox per role, and fails if a node panicked: a frame the decoder
/// accepts must be one the nodes can run.
fn assert_runs_without_a_node_panic(label: &str, frame: &str, spec: &ProgramSpec) {
    let program = spec.program();
    let mut transport = LocalChannelTransport::poll(program.num_nodes());
    let trial = BlockRng::new(0x5EED, 0).trial(0);
    let (outcome, _) = run_round(program, &mut transport, &RetryPolicy::default(), trial);
    if let RoundOutcome::Aborted(FaultReport {
        node,
        cause: FaultCause::NodePanicked,
        ..
    }) = outcome
    {
        panic!("{label}: node {node} panicked running the decoded frame {frame:?}");
    }
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
/// different spec that runs without a node panic — never a panic. Each
/// token is replaced by several hostile substitutes (non-numeric, negative,
/// non-hex, huge, and an id past every sample's role count).
#[test]
fn single_token_corruption_is_an_error_never_a_panic() {
    let substitutes = [
        "zz",
        "-1",
        "18446744073709551616",
        "NaN",
        ":",
        "1e999",
        "",
        "99",
    ];
    for (label, line) in sample_program_specs() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for i in 0..tokens.len() {
            for sub in substitutes {
                let mut mutated: Vec<&str> = tokens.clone();
                mutated[i] = sub;
                let frame = mutated.join(" ");
                let result = std::panic::catch_unwind(|| ProgramSpec::decode(&frame));
                let decoded = result.unwrap_or_else(|_| {
                    panic!("{label}: decode panicked with token {i} replaced by {sub:?}")
                });
                if let Ok(spec) = decoded {
                    assert_runs_without_a_node_panic(label, &frame, &spec);
                }
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
        "chain 1073741824",
        "relay 1073741824 0",
        // Boundaries implying a single segment of ~2^30 tables.
        "relay 1 0 1073741824",
        "tree 1073741824 0",
        "tree 2 1073741824",
        "tree 1 0 i x 1073741824",
        "tree 1 0 i x 1 0:x 1073741824",
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
    assert!(ProgramSpec::decode("relay 1 5 2").is_err());
    assert!(ProgramSpec::decode("relay 2 0 4 1").is_err());
}

/// Relay boundaries must start at node 0: no role exists for the nodes
/// before the first boundary. These frames are otherwise well formed
/// (increasing boundaries, the right number of table tokens), so building
/// the program from them would underflow; decode must refuse them first,
/// and say why.
#[test]
fn relay_boundaries_not_starting_at_zero_are_structured_errors() {
    let tables = |n: usize| vec!["3ff0000000000000"; n].join(" ");
    for frame in [
        format!("relay 1 5 9 {}", tables(16)),
        "relay 0 5".to_string(),
        format!("relay 2 1 3 5 {} {}", tables(8), tables(8)),
    ] {
        let result = std::panic::catch_unwind(|| ProgramSpec::decode(&frame));
        let decoded = result.unwrap_or_else(|_| panic!("decode panicked on {frame:?}"));
        let err = decoded.expect_err(&frame);
        assert!(
            err.contains("not 0"),
            "unexpected error {err:?} for {frame:?}"
        );
    }
}

#[test]
fn unknown_kinds_and_bad_roles_are_structured_errors() {
    for frame in [
        "",
        "warp 1 2 3",
        "tree 1 0 q",
        "tree 1 0 l zz",
        "tree 1 0 i x 1 5 0",    // child token missing ':'
        "tree 1 0 i x 1 5:zz 0", // bad shift
        "tree 1 0 i y 1 5:x 0",  // bad parent token
    ] {
        let result = std::panic::catch_unwind(|| ProgramSpec::decode(frame));
        let decoded = result.unwrap_or_else(|_| panic!("decode panicked on {frame:?}"));
        assert!(decoded.is_err(), "{frame:?} must not decode");
    }
}

/// Tree frames that are well formed token by token but whose ids or tables
/// do not fit the role count: each would index past the role table, a
/// mailbox or a probability table when its nodes run, so decode must
/// refuse it and name the field. `p1`, `p2` and `p4` are 1, 2 and 4
/// probability tokens.
#[test]
fn tree_ids_shifts_and_tables_out_of_range_are_structured_errors() {
    let probs = |n: usize| vec!["3ff0000000000000"; n].join(" ");
    let (p1, p2, p4) = (probs(1), probs(2), probs(4));
    for (frame, field) in [
        // A root with no table at all, so its own coin indexes past it.
        ("tree 1 1 0 i x 0 0".to_string(), "probability"),
        (format!("tree 1 1 0 i x 0 1 {p1}"), "probability"),
        (format!("tree 1 1 1 i x 0 2 {p2}"), "schedule id"),
        (format!("tree 2 2 0 1 l 2 i x 1 0:x 2 {p2}"), "leaf parent"),
        (
            format!("tree 2 2 0 1 l 1 i 2 1 0:x 2 {p2}"),
            "internal parent",
        ),
        (format!("tree 2 2 0 1 l 1 i x 1 2:x 2 {p2}"), "child id"),
        (format!("tree 2 2 0 1 u i x 1 0:1 2 {p2}"), "probability"),
        (format!("tree 2 2 0 1 u i x 1 0:2 4 {p4}"), "shift"),
        (format!("tree 2 2 0 1 u i x 1 0:0 4 {p4}"), "shift"),
    ] {
        let result = std::panic::catch_unwind(|| ProgramSpec::decode(&frame));
        let decoded = result.unwrap_or_else(|_| panic!("decode panicked on {frame:?}"));
        let err = decoded.expect_err(&frame);
        assert!(
            err.contains(field),
            "{frame:?}: error {err:?} does not name the {field}"
        );
    }
    // In range, the same shapes decode and run.
    for frame in [
        format!("tree 2 2 0 1 l 1 i x 1 0:x 2 {p2}"),
        format!("tree 2 2 0 1 u i x 1 0:1 4 {p4}"),
    ] {
        let spec = ProgramSpec::decode(&frame).unwrap_or_else(|e| panic!("{frame:?}: {e}"));
        assert_runs_without_a_node_panic("in range", &frame, &spec);
    }
}

/// Deterministic mutation fuzz: byte-level corruption (flips, deletions,
/// duplications) of real encodings must never panic the decoder, nor a
/// node running what it decodes. A simple LCG drives the mutations so
/// failures replay exactly.
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
            let result = std::panic::catch_unwind(|| ProgramSpec::decode(&frame));
            let decoded =
                result.unwrap_or_else(|_| panic!("{label}: decoder panicked on {frame:?}"));
            if let Ok(spec) = decoded {
                assert_runs_without_a_node_panic(label, &frame, &spec);
            }
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

/// The service-layer wire form obeys the same contract: hostile job bodies
/// (HTTP requests, journal `job` lines) are structured errors.
#[test]
fn service_spec_wire_negatives_are_structured_errors() {
    // Out-of-cap parameters are refused at parse time, not at compile
    // time: the parser is the admission boundary.
    for instance in [
        r#""protocol":"eq_path","r":9999999,"bits":6,"x":"101101","y":"101101""#, // r over cap
        r#""protocol":"eq_path","r":8,"bits":6,"x":"101101","y":"101101","reps":999"#, // reps over cap
        r#""protocol":"eq_path","r":8,"bits":17,"x":"00000000000000000","y":"00000000000000000""#, // bits over cap
        r#""protocol":"eq_tree","arms":99,"arm_len":1,"bits":4,"x":"1001","y":"0110""#, // arms over cap
        r#""protocol":"relay","r":1,"bits":4,"x":"1011","y":"1011""#, // r under relay minimum
    ] {
        let body = format!(r#"{{"instance":{{{instance}}},"trials":1}}"#);
        let err = dqma::service::json::parse(&body)
            .and_then(|p| JobSpec::from_json(&p))
            .expect_err(&body);
        assert!(err.contains("outside"), "{body}: unexpected error {err:?}");
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
