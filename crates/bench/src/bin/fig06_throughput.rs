//! Figure 6 — (a) application-layer throughput 40 vs 20 MHz with rate
//! control for UDP and TCP, over the 24-link corpus; (b) optimal MCS at
//! 40 MHz vs at 20 MHz.
//!
//! Paper findings to reproduce:
//! * ~20 % of trials do better on 20 MHz, clustered at low throughput
//!   (SNR < ~6 dB); ~30 % for TCP vs ~10 % for UDP.
//! * The vast majority of points lie right of the y = 2x line (CB never
//!   doubles throughput).
//! * The optimal 40 MHz MCS is almost always ≤ the optimal 20 MHz MCS.

use acorn_bench::{header, mbps, print_table, save_json};
use acorn_mac::airtime::{CellAirtime, ClientLink};
use acorn_phy::estimator::LinkQualityEstimator;
use acorn_phy::ChannelWidth;
use acorn_sim::traffic::{cell_goodput_bps, Traffic};
use acorn_topology::corpus::{testbed_links, MAX_TX_DBM};
use serde::Serialize;

#[derive(Serialize)]
struct LinkPoint {
    link: usize,
    snr20_db: f64,
    udp20_bps: f64,
    udp40_bps: f64,
    tcp20_bps: f64,
    tcp40_bps: f64,
    mcs20: u8,
    mcs40: u8,
}

#[derive(Serialize)]
struct Fig06 {
    points: Vec<LinkPoint>,
    udp_prefer20_fraction: f64,
    tcp_prefer20_fraction: f64,
    udp_points_below_2x: f64,
}

fn goodput(est: &LinkQualityEstimator, snr20: f64, width: ChannelWidth, traffic: Traffic) -> f64 {
    let e = est.estimate(snr20, ChannelWidth::Ht20);
    let link = ClientLink::from_rate_point(e.rate_point(width), width, est.gi);
    let airtime = CellAirtime::new(&[link], 1500);
    cell_goodput_bps(&airtime, &[link], 1.0, traffic)
}

fn main() {
    header("Figure 6(a): 40 vs 20 MHz throughput with rate control");
    let est = LinkQualityEstimator::default();
    let links = testbed_links();
    let mut points = Vec::new();
    let mut rows = Vec::new();
    let (mut udp20wins, mut tcp20wins, mut below2x) = (0usize, 0usize, 0usize);
    for l in &links {
        let snr20 = l.snr_db(MAX_TX_DBM, ChannelWidth::Ht20);
        let udp20 = goodput(&est, snr20, ChannelWidth::Ht20, Traffic::Udp);
        let udp40 = goodput(&est, snr20, ChannelWidth::Ht40, Traffic::Udp);
        let tcp20 = goodput(&est, snr20, ChannelWidth::Ht20, Traffic::tcp_default());
        let tcp40 = goodput(&est, snr20, ChannelWidth::Ht40, Traffic::tcp_default());
        let e = est.estimate(snr20, ChannelWidth::Ht20);
        if udp20 > udp40 {
            udp20wins += 1;
        }
        if tcp20 > tcp40 {
            tcp20wins += 1;
        }
        if udp40 < 2.0 * udp20 {
            below2x += 1;
        }
        rows.push(vec![
            format!("{}", l.id),
            format!("{snr20:.1}"),
            mbps(udp20),
            mbps(udp40),
            mbps(tcp20),
            mbps(tcp40),
            format!("{}", e.best20.mcs.value()),
            format!("{}", e.best40.mcs.value()),
        ]);
        points.push(LinkPoint {
            link: l.id,
            snr20_db: snr20,
            udp20_bps: udp20,
            udp40_bps: udp40,
            tcp20_bps: tcp20,
            tcp40_bps: tcp40,
            mcs20: e.best20.mcs.value(),
            mcs40: e.best40.mcs.value(),
        });
    }
    print_table(
        &[
            "link", "SNR20", "UDP 20", "UDP 40", "TCP 20", "TCP 40", "MCS20", "MCS40",
        ],
        &rows,
    );
    let n = links.len() as f64;
    println!();
    println!(
        "UDP trials preferring 20 MHz: {:.0}% (paper ~10%)",
        100.0 * udp20wins as f64 / n
    );
    println!(
        "TCP trials preferring 20 MHz: {:.0}% (paper ~30%)",
        100.0 * tcp20wins as f64 / n
    );
    println!(
        "UDP points right of y=2x (CB gain < 2x): {:.0}% (paper: vast majority)",
        100.0 * below2x as f64 / n
    );

    header("Figure 6(b): optimal MCS with 40 MHz vs 20 MHz");
    let le = points.iter().filter(|p| p.mcs40 % 8 <= p.mcs20 % 8).count();
    println!(
        "links where optimal 40 MHz MCS (mod order) <= 20 MHz MCS: {}/{}",
        le,
        points.len()
    );
    println!("paper: the 40 MHz optimum is almost always less aggressive");

    save_json(
        "fig06_throughput",
        &Fig06 {
            udp_prefer20_fraction: udp20wins as f64 / n,
            tcp_prefer20_fraction: tcp20wins as f64 / n,
            udp_points_below_2x: below2x as f64 / n,
            points,
        },
    );
}
