//! The robust quantum advantage on long paths (Section 4): relay points keep
//! the *total* quantum proof size at Õ(r·n^{2/3}), while every sound
//! classical protocol needs Ω(r·n) bits in total (Corollary 25). The 42·s²
//! repetition constant decides where the two cross; this prints where.
//!
//! Run with: `cargo run --example relay_advantage`

use commproto::bitstring::BitString;
use dqma::dma::dma_total_proof_threshold;
use dqma::relay::RelayEqProtocol;

/// Prints one sweep row per `(n, r, spacing)` and returns the first `n` at
/// which the quantum total is below the classical threshold.
fn sweep(rows: impl Iterator<Item = (u32, usize, usize)>) -> Option<u32> {
    println!(
        "{:>6} {:>6} {:>8} {:>20} {:>20} {:>10}",
        "n", "r", "spacing", "quantum (qubits)", "classical LB (bits)", "ratio"
    );
    let mut crossover = None;
    for (k, r, spacing) in rows {
        let n = 1usize << k;
        let quantum = RelayEqProtocol::costs_for(n, r, spacing).total_proof_qubits;
        let classical = dma_total_proof_threshold(n, r, 1);
        let ratio = quantum as f64 / classical as f64;
        println!(
            "{:>6} {r:>6} {spacing:>8} {quantum:>20} {classical:>20} {ratio:>9.2}x",
            format!("2^{k}")
        );
        if ratio < 1.0 {
            crossover.get_or_insert(k);
        }
    }
    crossover
}

fn report(crossover: Option<u32>) {
    match crossover {
        Some(k) => println!("the quantum total is first below the classical bound at n = 2^{k}"),
        None => println!("the quantum total stays above the classical bound on this sweep"),
    }
}

fn main() {
    // Behavioural check on a small instance.
    let protocol = RelayEqProtocol::with_spacing(4, 4, 2, 3);
    let x = BitString::from_u64(0b0011, 4);
    let y = BitString::from_u64(0b1100, 4);
    println!("small instance (n = 4, r = 4, relay spacing 2):");
    println!(
        "  completeness on equal inputs: {:.6}",
        protocol.completeness(&x)
    );
    let cheat = protocol.best_interpolating_acceptance(&x, &y);
    println!("  best interpolating-relay cheat on unequal inputs: {cheat:.6}");

    println!("\nthe paper's spacing ⌈n^(1/3)⌉, path length r = 4·⌈n^(1/3)⌉ (three relay points):");
    report(sweep((12..=42).step_by(3).map(|k| {
        let s = RelayEqProtocol::paper_spacing(1 << k);
        (k, 4 * s, s)
    })));

    println!("\nthe cost-minimising spacing (about n^(1/3)/16), path length r = 4096:");
    report(sweep((18..=36).step_by(3).map(|k| {
        (
            k,
            4096,
            RelayEqProtocol::cost_minimising_spacing(1 << k, 4096),
        )
    })));
}
