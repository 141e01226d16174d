//! Enterprise floor: a day in the life of an ACORN-managed WLAN.
//!
//! Drives a 3×3 AP grid with a Poisson client-session workload (arrival
//! durations fit to the paper's CRAWDAD statistics), re-running channel
//! allocation every T = 30 minutes — the period the paper derives from
//! Fig. 9 — and reporting the network throughput before/after each
//! re-allocation.
//!
//! ```text
//! cargo run --release --example enterprise_floor
//! ```

use acorn::core::{AcornConfig, AcornController};
use acorn::obs::NullSink;
use acorn::topology::ClientId;
use acorn::traces::{SessionGenerator, REALLOCATION_PERIOD_S};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let horizon_s = 4.0 * 3600.0; // four simulated hours
    let mut rng = StdRng::seed_from_u64(99);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, horizon_s);
    println!(
        "workload: {} sessions over {:.0} h",
        sessions.len(),
        horizon_s / 3600.0
    );

    // Place one (potential) client position per session on the floor.
    let wlan = acorn::sim::enterprise_grid(3, 3, 50.0, sessions.len(), 123);
    let ctl = AcornController::new(AcornConfig::default());
    let mut state = ctl.new_state(&wlan, 5);

    // Event loop: arrivals, departures, periodic re-allocation.
    #[derive(Debug)]
    enum Event {
        Arrive(usize),
        Depart(usize),
        Reallocate,
    }
    let mut events: Vec<(f64, Event)> = Vec::new();
    for s in &sessions {
        events.push((s.start_s, Event::Arrive(s.client)));
        events.push((s.end_s(), Event::Depart(s.client)));
    }
    let mut t = REALLOCATION_PERIOD_S;
    while t < horizon_s {
        events.push((t, Event::Reallocate));
        t += REALLOCATION_PERIOD_S;
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

    let mut seed = 1000u64;
    for (time, ev) in events {
        match ev {
            Event::Arrive(c) => {
                ctl.associate(&wlan, &mut state, ClientId(c));
            }
            Event::Depart(c) => {
                ctl.deassociate(&mut state, ClientId(c));
            }
            Event::Reallocate => {
                let active = state.assoc.iter().filter(|a| a.is_some()).count();
                let before = ctl.total_throughput_bps(&wlan, &state);
                let r = ctl.reallocate(&wlan, &mut state, 4, seed, &NullSink);
                seed += 1;
                println!(
                    "t={:>5.0} min: {active:>2} active clients, Y {:>6.1} -> {:>6.1} Mb/s ({} switches)",
                    time / 60.0,
                    before / 1e6,
                    r.total_bps / 1e6,
                    r.switches
                );
            }
        }
    }

    println!();
    println!("final channel plan:");
    for (i, a) in state.assignments.iter().enumerate() {
        println!("  AP {i}: {a:?}");
    }
}
