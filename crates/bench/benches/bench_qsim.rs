//! `bench_qsim` — micro-benchmarks of the qsim gate kernels.
//!
//! Times the strided in-place kernels against the retained naive oracles
//! (`qsim::naive`) across register sizes, for the shapes the dQMA protocols
//! actually exercise: single- and two-qubit unitaries on state vectors,
//! permutation (monomial) operators, single-qubit conjugations on density
//! matrices, and dense matmul. Emits `BENCH_qsim.json` so future PRs can
//! track the perf trajectory, and prints a human-readable table.
//!
//! Run with: `cargo bench --bench bench_qsim`

use dqma_bench::{fmt_ns, print_header, print_row, time_it, JsonReport, JsonValue, Timing};
use qsim::linalg::CMatrix;
use qsim::{gates, naive, RandomStateGenerator};
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(300);

struct Entry {
    name: String,
    fast: Timing,
    naive: Timing,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.naive.ns_per_op / self.fast.ns_per_op
    }
}

fn bench_pure_gate(
    entries: &mut Vec<Entry>,
    name: &str,
    n_qubits: usize,
    targets: &[usize],
    u: &CMatrix,
) {
    let dims = vec![2usize; n_qubits];
    let mut gen = RandomStateGenerator::new(7);
    let psi = gen.random_pure(&dims);
    let mut work = psi.clone();
    let fast = time_it(
        || {
            work.apply_unitary(targets, u);
            std::hint::black_box(&mut work);
        },
        WINDOW,
    );
    let slow = time_it(
        || {
            std::hint::black_box(naive::apply_unitary_pure(&psi, targets, u));
        },
        WINDOW,
    );
    entries.push(Entry {
        name: name.to_string(),
        fast,
        naive: slow,
    });
}

fn bench_density_gate(
    entries: &mut Vec<Entry>,
    name: &str,
    n_qubits: usize,
    targets: &[usize],
    u: &CMatrix,
) {
    let dims = vec![2usize; n_qubits];
    let mut gen = RandomStateGenerator::new(8);
    let rho = gen.random_density(&dims, 2);
    let mut work = rho.clone();
    let fast = time_it(
        || {
            work.apply_unitary(targets, u);
            std::hint::black_box(&mut work);
        },
        WINDOW,
    );
    let slow = time_it(
        || {
            std::hint::black_box(naive::apply_unitary_density(&rho, targets, u));
        },
        WINDOW,
    );
    entries.push(Entry {
        name: name.to_string(),
        fast,
        naive: slow,
    });
}

fn bench_matmul(entries: &mut Vec<Entry>, d: usize) {
    let a = CMatrix::from_fn(d, d, |i, j| {
        qsim::Complex::new(
            (i * 31 + j) as f64 % 7.0 - 3.0,
            (i + j * 17) as f64 % 5.0 - 2.0,
        )
    });
    let b = CMatrix::from_fn(d, d, |i, j| {
        qsim::Complex::new(
            (i + j) as f64 % 3.0 - 1.0,
            (i * 13 + j * 7) as f64 % 11.0 - 5.0,
        )
    });
    let fast = time_it(
        || {
            std::hint::black_box(a.matmul(&b));
        },
        WINDOW,
    );
    let slow = time_it(
        || {
            std::hint::black_box(naive::matmul(&a, &b));
        },
        WINDOW,
    );
    entries.push(Entry {
        name: format!("matmul_blocked_d{d}"),
        fast,
        naive: slow,
    });
}

fn main() {
    let mut entries = Vec::new();

    // State-vector gates: single qubit, two qubits (non-adjacent,
    // out of order), and a monomial (SWAP) fast path.
    let h = gates::hadamard();
    let cx = gates::cnot();
    let sw = gates::swap(2);
    for n in [4usize, 8, 12] {
        bench_pure_gate(
            &mut entries,
            &format!("pure_1q_hadamard_n{n}"),
            n,
            &[n / 2],
            &h,
        );
    }
    for n in [8usize, 12] {
        bench_pure_gate(
            &mut entries,
            &format!("pure_2q_cnot_n{n}"),
            n,
            &[n - 2, 1],
            &cx,
        );
    }
    bench_pure_gate(&mut entries, "pure_2q_swap_monomial_n12", 12, &[2, 9], &sw);

    // Density-matrix conjugations: the acceptance criterion shape is the
    // 8-qubit single-qubit gate.
    for n in [4usize, 6, 8] {
        bench_density_gate(
            &mut entries,
            &format!("density_1q_hadamard_n{n}"),
            n,
            &[n / 2],
            &h,
        );
    }
    bench_density_gate(&mut entries, "density_2q_cnot_n8", 8, &[6, 1], &cx);

    // Dense matmul: blocked vs the naive triple loop.
    for d in [128usize, 256] {
        bench_matmul(&mut entries, d);
    }

    // Worker fan-out overhead at 1/2/4/8 workers (PR 4): the fixed cost a
    // batched trial dispatch pays before any work.
    // `fast` dispatches one empty chunk per worker on the persistent pool
    // (threads already parked); the baseline column times the per-call
    // `std::thread::scope` spawn the kernels used through PR 3.
    for &w in &[1usize, 2, 4, 8] {
        let pool = qsim::pool::global();
        let fast = time_it(
            || {
                pool.dispatch(w, w, &|_slot, chunk| {
                    std::hint::black_box(chunk);
                });
            },
            WINDOW,
        );
        let slow = time_it(
            || {
                std::thread::scope(|scope| {
                    for t in 1..w {
                        scope.spawn(move || {
                            std::hint::black_box(t);
                        });
                    }
                    std::hint::black_box(0usize);
                });
            },
            WINDOW,
        );
        entries.push(Entry {
            name: format!("pool_dispatch_w{w}"),
            fast,
            naive: slow,
        });
    }

    let columns = [
        "benchmark",
        "strided",
        "naive",
        "speedup",
        "ops/s (strided)",
    ];
    print_header("bench_qsim: strided kernels vs naive oracles", &columns);
    let mut report = JsonReport::new();
    for e in &entries {
        print_row(&[
            e.name.clone(),
            fmt_ns(e.fast.ns_per_op),
            fmt_ns(e.naive.ns_per_op),
            format!("{:.1}x", e.speedup()),
            format!("{:.0}", e.fast.ops_per_sec),
        ]);
        // The storage layout of the timed kernels ("soa" split re/im planes
        // from PR 3 on; "aos" interleaved before) and of the naive baseline
        // column, so cross-PR trajectory comparison in BENCH_qsim.json stays
        // unambiguous. The pool rows time dispatch overhead, not kernels:
        // their baseline is the pre-PR-4 per-call thread::scope spawn.
        let (layout, baseline) = if e.name.starts_with("pool_dispatch") {
            ("pool", "thread-scope")
        } else {
            ("soa", "aos-naive")
        };
        report.push(&[
            ("name", JsonValue::Str(e.name.clone())),
            ("layout", JsonValue::Str(layout.to_string())),
            ("baseline_layout", JsonValue::Str(baseline.to_string())),
            ("ns_per_op", JsonValue::Num(e.fast.ns_per_op)),
            ("ops_per_sec", JsonValue::Num(e.fast.ops_per_sec)),
            ("iters", JsonValue::Int(e.fast.iters)),
            ("naive_ns_per_op", JsonValue::Num(e.naive.ns_per_op)),
            ("speedup_vs_naive", JsonValue::Num(e.speedup())),
        ]);
    }

    // The PR-1 acceptance gate: ≥ 10× on the 8-qubit density 1q gate.
    let gate = entries
        .iter()
        .find(|e| e.name == "density_1q_hadamard_n8")
        .expect("acceptance benchmark present");
    let meets = gate.speedup() >= 10.0;
    println!(
        "\nacceptance: density_1q_hadamard_n8 speedup {:.1}x (target >= 10x) — {}",
        gate.speedup(),
        if meets { "OK" } else { "MISS" }
    );

    let json = report.render(&[
        ("suite", JsonValue::Str("bench_qsim".to_string())),
        ("layout", JsonValue::Str("soa".to_string())),
        (
            "acceptance_density_1q_n8_speedup",
            JsonValue::Num(gate.speedup()),
        ),
        ("meets_10x_target", JsonValue::Str(meets.to_string())),
    ]);
    // cargo runs benches with the package directory as cwd; anchor the
    // report at the workspace root so the perf trajectory lives in one place.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_qsim.json");
    std::fs::write(path, &json).expect("write BENCH_qsim.json");
    println!("wrote {path}");

    // Sanity: the kernels must agree with the oracles on a spot check, so a
    // silently-broken kernel can't report a great speedup.
    let mut gen = RandomStateGenerator::new(99);
    let dims = vec![2usize; 6];
    let psi = gen.random_pure(&dims);
    let mut fast = psi.clone();
    fast.apply_unitary(&[4, 1], &cx);
    let slow = naive::apply_unitary_pure(&psi, &[4, 1], &cx);
    assert!(fast.approx_eq(&slow, 1e-12), "kernel/oracle divergence");
    let rho = gen.random_density(&[2usize; 4], 2);
    let mut fast = rho.clone();
    fast.apply_unitary(&[2], &h);
    let slow = naive::apply_unitary_density(&rho, &[2], &h);
    assert!(
        fast.matrix().approx_eq(slow.matrix(), 1e-12),
        "density kernel/oracle divergence"
    );
}
