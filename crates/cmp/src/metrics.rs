//! Run reports: everything the experiment harness prints.

use crate::energy::ChipEnergy;
use crate::interconnect::LatencyAttribution;
use fsoi_sim::metrics::{Metric, Registry};
use fsoi_sim::stats::Histogram;

/// Traffic classes used in Figure 10's data-lane collision breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPacketKind {
    /// Memory fetch completions (MemAck).
    Memory,
    /// Directory → L1 data replies.
    Reply,
    /// Writebacks (incl. dirty InvAck/DwgAck).
    WriteBack,
}

impl DataPacketKind {
    /// Dense index 0..3.
    pub fn index(self) -> usize {
        match self {
            DataPacketKind::Memory => 0,
            DataPacketKind::Reply => 1,
            DataPacketKind::WriteBack => 2,
        }
    }

    /// Plot label.
    pub fn label(self) -> &'static str {
        match self {
            DataPacketKind::Memory => "Memory packets",
            DataPacketKind::Reply => "Reply",
            DataPacketKind::WriteBack => "WriteBack",
        }
    }

    /// Metric label value (lowercase, no spaces).
    pub fn metric_label(self) -> &'static str {
        match self {
            DataPacketKind::Memory => "memory",
            DataPacketKind::Reply => "reply",
            DataPacketKind::WriteBack => "writeback",
        }
    }
}

/// The complete result of one application × network run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Network name.
    pub network: String,
    /// Wall-clock cycles to finish the fixed workload.
    pub cycles: u64,
    /// Mean packet-latency attribution (Figure 6/7 stack).
    pub attribution: LatencyAttribution,
    /// Read-miss reply latency distribution (Figure 5).
    pub reply_latency: Histogram,
    /// Meta-lane first-transmission probability per node-slot (Figure 9 x).
    pub meta_tx_probability: f64,
    /// Data-lane transmission probability.
    pub data_tx_probability: f64,
    /// Meta collision rate (collided / transmissions).
    pub meta_collision_rate: f64,
    /// Data collision rate.
    pub data_collision_rate: f64,
    /// Packets sent per class `[meta, data]`.
    pub packets_sent: [u64; 2],
    /// Data packets delivered per kind (Figure 10 denominators).
    pub data_by_kind: [u64; 3],
    /// Data packets that collided at least once, per kind, plus a fourth
    /// bucket for re-collided retransmissions (Figure 10 numerators).
    pub collided_by_kind: [u64; 4],
    /// Meta packets elided thanks to confirmation-acks (§5.1).
    pub acks_elided: u64,
    /// Packets avoided by boolean subscriptions (§5.1).
    pub subscription_packets_saved: u64,
    /// Mean L1 miss rate across cores.
    pub l1_miss_rate: f64,
    /// Sum of per-core active cycles.
    pub active_cycles: u64,
    /// Sum of per-core stalled cycles.
    pub stalled_cycles: u64,
    /// Chip energy.
    pub energy: ChipEnergy,
    /// Mean collision-resolution delay among collided data packets.
    pub data_resolution_delay: f64,
    /// Hint accuracy: correct / issued (FSOI data lane).
    pub hint_accuracy: f64,
    /// Wrong-winner rate: wrong / issued.
    pub hint_wrong_rate: f64,
    /// Packets dropped by raw bit errors and recovered by retransmission.
    pub bit_error_drops: u64,
    /// Deterministic harness spans for this cell: `sim/*` (cycles, ticks,
    /// events, fast-forward jumps) and `coh/dir/*` counters. Deliberately
    /// *not* part of [`RunReport::export`]: they describe how the harness
    /// drove the simulation, not what the simulation measured, and
    /// reference drives (e.g. tick-by-tick replays in tests) legitimately
    /// differ here while producing identical metrics. A sweep merges them
    /// across its cells ([`Registry::merge`]).
    pub profile: Registry,
}

/// One report field as the field ↔ metric mapping hands it out.
enum Slot<'a> {
    Count(&'a mut u64),
    Value(&'a mut f64),
    Hist(&'a mut Histogram),
    /// A gauge computed from other fields: exported, never read back.
    Derived(f64),
}

/// One row of the mapping: metric name, the label a row carries beyond
/// `app` and `network`, and the field.
type Row<'a> = (&'static str, Option<(&'static str, &'static str)>, Slot<'a>);

impl RunReport {
    /// Speedup of this run relative to a baseline's cycle count.
    pub fn speedup_vs(&self, baseline_cycles: u64) -> f64 {
        baseline_cycles as f64 / self.cycles as f64
    }

    /// Mean total packet latency.
    pub fn mean_packet_latency(&self) -> f64 {
        self.attribution.total()
    }

    /// An all-zero report for `app` on `network` — what
    /// [`RunReport::from_wire`] fills in.
    fn blank(app: &str, network: &str, profile: Registry) -> RunReport {
        RunReport {
            app: app.to_string(),
            network: network.to_string(),
            cycles: 0,
            attribution: LatencyAttribution::default(),
            reply_latency: Histogram::new(1, 1),
            meta_tx_probability: 0.0,
            data_tx_probability: 0.0,
            meta_collision_rate: 0.0,
            data_collision_rate: 0.0,
            packets_sent: [0; 2],
            data_by_kind: [0; 3],
            collided_by_kind: [0; 4],
            acks_elided: 0,
            subscription_packets_saved: 0,
            l1_miss_rate: 0.0,
            active_cycles: 0,
            stalled_cycles: 0,
            energy: ChipEnergy::default(),
            data_resolution_delay: 0.0,
            hint_accuracy: 0.0,
            hint_wrong_rate: 0.0,
            bit_error_drops: 0,
            profile,
        }
    }

    /// The field ↔ metric mapping, written once: [`RunReport::export`]
    /// reads every row, [`RunReport::from_wire`] writes every row, and the
    /// wire form is the export. A new measured quantity is a field plus a
    /// row here.
    fn rows(&mut self) -> Vec<Row<'_>> {
        use Slot::{Count, Derived, Hist, Value};
        let lane = |l| Some(("lane", l));
        let kind = |k: DataPacketKind| Some(("kind", k.metric_label()));
        let (latency_total, energy_total) = (self.attribution.total(), self.energy.total_j());
        let (latency, energy) = (&mut self.attribution, &mut self.energy);
        let [sent_meta, sent_data] = &mut self.packets_sent;
        let [delivered_mem, delivered_reply, delivered_wb] = &mut self.data_by_kind;
        let [collided_mem, collided_reply, collided_wb, recollided] = &mut self.collided_by_kind;
        #[rustfmt::skip] // a table: one row per metric
        let rows = vec![
            ("cmp.cycles", None, Count(&mut self.cycles)),
            ("cmp.latency.queuing", None, Value(&mut latency.queuing)),
            ("cmp.latency.scheduling", None, Value(&mut latency.scheduling)),
            ("cmp.latency.network", None, Value(&mut latency.network)),
            ("cmp.latency.resolution", None, Value(&mut latency.collision_resolution)),
            ("cmp.latency.total", None, Derived(latency_total)),
            ("cmp.reply_latency", None, Hist(&mut self.reply_latency)),
            ("cmp.tx_probability", lane("meta"), Value(&mut self.meta_tx_probability)),
            ("cmp.tx_probability", lane("data"), Value(&mut self.data_tx_probability)),
            ("cmp.collision_rate", lane("meta"), Value(&mut self.meta_collision_rate)),
            ("cmp.collision_rate", lane("data"), Value(&mut self.data_collision_rate)),
            ("cmp.packets_sent", lane("meta"), Count(sent_meta)),
            ("cmp.packets_sent", lane("data"), Count(sent_data)),
            ("cmp.data_delivered", kind(DataPacketKind::Memory), Count(delivered_mem)),
            ("cmp.data_delivered", kind(DataPacketKind::Reply), Count(delivered_reply)),
            ("cmp.data_delivered", kind(DataPacketKind::WriteBack), Count(delivered_wb)),
            ("cmp.data_collided", kind(DataPacketKind::Memory), Count(collided_mem)),
            ("cmp.data_collided", kind(DataPacketKind::Reply), Count(collided_reply)),
            ("cmp.data_collided", kind(DataPacketKind::WriteBack), Count(collided_wb)),
            ("cmp.data_recollided", None, Count(recollided)),
            ("cmp.acks_elided", None, Count(&mut self.acks_elided)),
            ("cmp.subscription_packets_saved", None, Count(&mut self.subscription_packets_saved)),
            ("cmp.l1_miss_rate", None, Value(&mut self.l1_miss_rate)),
            ("cmp.active_cycles", None, Count(&mut self.active_cycles)),
            ("cmp.stalled_cycles", None, Count(&mut self.stalled_cycles)),
            ("cmp.energy.network_j", None, Value(&mut energy.network_j)),
            ("cmp.energy.core_j", None, Value(&mut energy.core_j)),
            ("cmp.energy.leakage_j", None, Value(&mut energy.leakage_j)),
            ("cmp.energy.total_j", None, Derived(energy_total)),
            ("cmp.data_resolution_delay", None, Value(&mut self.data_resolution_delay)),
            ("cmp.hint_accuracy", None, Value(&mut self.hint_accuracy)),
            ("cmp.hint_wrong_rate", None, Value(&mut self.hint_wrong_rate)),
            ("cmp.bit_error_drops", None, Count(&mut self.bit_error_drops)),
        ];
        rows
    }

    /// Exports every figure/table input as named metrics into `reg`.
    ///
    /// This is the single code path behind snapshot output: the harness
    /// renders `Registry::to_table()` / `to_jsonl()` instead of formatting
    /// struct fields ad hoc, so two same-seed runs produce byte-identical
    /// snapshots. Every metric carries `app` and `network` labels, so
    /// reports from several runs can merge into one registry.
    pub fn export(&self, reg: &mut Registry) {
        // The mapping hands out `&mut` (so that `from_wire` can fill the
        // same rows); reading it takes a scratch copy, once per cell.
        let mut scratch = self.clone();
        let run = [("app", &*self.app), ("network", &*self.network)];
        for (name, extra, slot) in scratch.rows() {
            let labels: Vec<_> = run.into_iter().chain(extra).collect();
            match slot {
                Slot::Count(c) => reg.inc(name, &labels, *c),
                Slot::Value(&mut v) | Slot::Derived(v) => reg.gauge(name, &labels, v),
                Slot::Hist(h) => reg.histogram(name, &labels, h.clone()),
            }
        }
    }

    /// A fresh registry holding only this report's metrics (see
    /// [`RunReport::export`]).
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        self.export(&mut reg);
        reg
    }

    /// Serializes the report for the cell cache: an `app` and a `network`
    /// line, the export registry, a `profile <entries>` line, the profile
    /// registry — both in [`Registry::to_wire`]'s bit-exact line codec.
    /// [`RunReport::from_wire`] reproduces the report bit-for-bit, so a
    /// cache hit exports byte-identical metrics to the run it replaced.
    pub fn to_wire(&self) -> String {
        format!(
            "app {}\nnetwork {}\n{}profile {}\n{}",
            self.app,
            self.network,
            self.registry().to_wire(),
            self.profile.len(),
            self.profile.to_wire()
        )
    }

    /// Parses the wire format written by [`RunReport::to_wire`]. Returns
    /// `None` on any structural mismatch — a damaged header, a registry
    /// that does not decode, an export metric missing, of the wrong kind
    /// or beyond the mapping, a profile of the wrong length or holding
    /// anything but span counters — so cache readers treat damage as a
    /// miss rather than ever returning wrong bytes.
    pub fn from_wire(text: &str) -> Option<RunReport> {
        let (app, rest) = text.strip_prefix("app ")?.split_once('\n')?;
        let (network, rest) = rest.strip_prefix("network ")?.split_once('\n')?;
        let (export, rest) = rest.split_once("\nprofile ")?;
        let (spans, profile) = rest.split_once('\n')?;
        let (export, profile) = (Registry::from_wire(export)?, Registry::from_wire(profile)?);
        if spans.parse() != Ok(profile.len())
            || !profile.iter().all(|(_, m)| matches!(m, Metric::Counter(_)))
        {
            return None;
        }
        let mut report = RunReport::blank(app, network, profile);
        let rows = report.rows();
        if export.len() != rows.len() {
            return None;
        }
        let run = [("app", app), ("network", network)];
        for (name, extra, slot) in rows {
            let labels: Vec<_> = run.into_iter().chain(extra).collect();
            match (slot, export.metric(name, &labels)?) {
                (Slot::Count(f), Metric::Counter(v)) => *f = *v,
                (Slot::Value(f), Metric::Gauge(v)) => *f = *v,
                (Slot::Hist(f), Metric::Histogram(v)) => *f = v.clone(),
                (Slot::Derived(_), Metric::Gauge(_)) => {}
                _ => return None,
            }
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indexing() {
        assert_eq!(DataPacketKind::Memory.index(), 0);
        assert_eq!(DataPacketKind::Reply.index(), 1);
        assert_eq!(DataPacketKind::WriteBack.index(), 2);
        assert!(DataPacketKind::Reply.label().contains("Reply"));
    }

    #[test]
    fn speedup_math() {
        let r = RunReport {
            cycles: 500,
            ..RunReport::blank("x", "fsoi", Registry::new())
        };
        assert!((r.speedup_vs(1000) - 2.0).abs() < 1e-12);
    }

    fn sample_report() -> RunReport {
        let mut profile = Registry::new();
        profile.inc("sim/cycles", &[], 500);
        profile.inc("sim/ff/jumps", &[], 3);
        RunReport {
            cycles: 500,
            attribution: LatencyAttribution {
                queuing: 1.0,
                scheduling: 2.0,
                network: 3.0,
                collision_resolution: 4.0,
            },
            reply_latency: Histogram::new(10, 20),
            meta_tx_probability: 0.25,
            data_tx_probability: 0.125,
            meta_collision_rate: 0.5,
            data_collision_rate: 0.75,
            packets_sent: [10, 20],
            data_by_kind: [3, 4, 5],
            collided_by_kind: [1, 2, 3, 4],
            acks_elided: 6,
            subscription_packets_saved: 7,
            l1_miss_rate: 0.01,
            active_cycles: 400,
            stalled_cycles: 100,
            energy: ChipEnergy {
                network_j: 0.5,
                core_j: 1.5,
                leakage_j: 0.25,
            },
            data_resolution_delay: 9.0,
            hint_accuracy: 0.9,
            hint_wrong_rate: 0.1,
            bit_error_drops: 2,
            ..RunReport::blank("tsp", "fsoi", profile)
        }
    }

    #[test]
    fn registry_export_covers_report_fields() {
        let r = sample_report();
        let reg = r.registry();
        let run = [("app", "tsp"), ("network", "fsoi")];
        assert_eq!(reg.counter("cmp.cycles", &run), 500);
        assert_eq!(reg.gauge_value("cmp.latency.total", &run), Some(10.0));
        assert_eq!(
            reg.gauge_value(
                "cmp.tx_probability",
                &[("app", "tsp"), ("network", "fsoi"), ("lane", "meta")]
            ),
            Some(0.25)
        );
        assert_eq!(
            reg.counter(
                "cmp.data_delivered",
                &[("app", "tsp"), ("network", "fsoi"), ("kind", "writeback")]
            ),
            5
        );
        assert_eq!(reg.counter("cmp.data_recollided", &run), 4);
        assert_eq!(reg.gauge_value("cmp.energy.total_j", &run), Some(2.25));
        assert_eq!(reg.counter("cmp.bit_error_drops", &run), 2);
    }

    #[test]
    fn wire_round_trip_is_byte_exact() {
        let mut r = sample_report();
        // Exercise the histogram path with real observations, including
        // overflow, and an f64 that does not print exactly in decimal.
        for v in [3, 17, 42, 1_000] {
            r.reply_latency.record(v);
        }
        r.l1_miss_rate = 0.1 + 0.2; // 0.30000000000000004
        let wire = r.to_wire();
        let back = RunReport::from_wire(&wire).expect("round trip parses");
        assert_eq!(back.registry().to_jsonl(), r.registry().to_jsonl());
        assert_eq!(back.to_wire(), wire, "re-serialization is byte-stable");
        assert_eq!(back.l1_miss_rate.to_bits(), r.l1_miss_rate.to_bits());
    }

    #[test]
    fn malformed_wire_is_rejected_not_misparsed() {
        let wire = sample_report().to_wire();
        assert!(wire.starts_with("app tsp\nnetwork fsoi\ncounter cmp.acks_elided{"));
        assert!(wire.ends_with("profile 2\ncounter sim/cycles 500\ncounter sim/ff/jumps 3\n"));
        assert!(RunReport::from_wire("").is_none());
        assert!(RunReport::from_wire("garbage\n").is_none());
        // Truncation, an extra line in either registry, a renamed metric, a
        // corrupted number, a damaged header and a header that disagrees
        // with the labels must all fail closed (cache treats as a miss).
        let truncated: String = wire.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(RunReport::from_wire(&truncated).is_none());
        let extra = wire.replacen("profile 2\n", "counter extra 1\nprofile 2\n", 1);
        assert!(RunReport::from_wire(&extra).is_none());
        assert!(RunReport::from_wire(&format!("{wire}extra 1\n")).is_none());
        let renamed = wire.replacen("cmp.cycles", "cmp.cycle_count", 1);
        assert!(RunReport::from_wire(&renamed).is_none());
        let corrupt = wire.replacen("network=fsoi} 500", "network=fsoi} 5oo", 1);
        assert_ne!(corrupt, wire);
        assert!(RunReport::from_wire(&corrupt).is_none());
        assert!(RunReport::from_wire(&wire.replacen("app tsp", "app  tsp", 1)).is_none());
        assert!(RunReport::from_wire(&wire.replacen("app tsp", "app fft", 1)).is_none());
        assert!(RunReport::from_wire(&wire.replacen("profile 2\n", "", 1)).is_none());
        assert!(RunReport::from_wire(&wire.replacen("profile 2\n", "profile 3\n", 1)).is_none());
        let gauge_span = wire.replacen(
            "counter sim/ff/jumps 3",
            "gauge sim/ff/jumps 0000000000000003",
            1,
        );
        assert!(RunReport::from_wire(&gauge_span).is_none());
    }

    #[test]
    fn registry_export_is_deterministic() {
        let r = sample_report();
        assert_eq!(r.registry().to_jsonl(), r.registry().to_jsonl());
        // Two reports merge into one registry without key clashes (the
        // app/network labels keep them apart).
        let mut merged = r.registry();
        let mut other = sample_report();
        other.network = "mesh".into();
        other.export(&mut merged);
        assert_eq!(merged.len(), 2 * r.registry().len());
    }
}
