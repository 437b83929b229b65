//! Off-chip memory channels.
//!
//! Table 3: memory latency 200 cycles, address-interleaved controllers —
//! 4 channels in the 16-node system, 8 in the 64-node system, each
//! serving one region of nodes and attached to the network at a
//! representative node. Table 4 studies two aggregate bandwidths:
//! 8.8 GB/s (the paper's default for the main results) and 52.8 GB/s.

use fsoi_sim::Cycle;

/// One memory channel: a fixed access latency plus a bandwidth-limited
/// service pipe.
#[derive(Debug)]
pub(crate) struct MemoryChannel {
    /// The network node this controller attaches to.
    pub node: usize,
    bytes_per_cycle: f64,
    latency: u64,
    busy_until: Cycle,
}

impl MemoryChannel {
    /// Creates a channel attached at `node`.
    pub(crate) fn new(node: usize, bytes_per_cycle: f64, latency: u64) -> Self {
        assert!(bytes_per_cycle > 0.0);
        MemoryChannel {
            node,
            bytes_per_cycle,
            latency,
            busy_until: Cycle::ZERO,
        }
    }

    /// Accepts a `bytes`-byte transfer at `now`; returns its completion
    /// time (queuing behind earlier transfers + transfer + access
    /// latency).
    pub(crate) fn request(&mut self, now: Cycle, bytes: u64) -> Cycle {
        let start = self.busy_until.max(now);
        let service = (bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        self.busy_until = start + service;
        self.busy_until + self.latency
    }
}

/// The full memory system: interleaved channels mapped over nodes.
#[derive(Debug)]
pub(crate) struct MemorySystem {
    channels: Vec<MemoryChannel>,
    nodes: usize,
}

impl MemorySystem {
    /// Builds the system: `total_gb_per_s` split evenly over `channels`
    /// controllers placed at evenly spaced nodes of an `nodes`-node system
    /// clocked at `clock_hz`.
    pub(crate) fn new(
        nodes: usize,
        channels: usize,
        total_gb_per_s: f64,
        latency: u64,
        clock_hz: f64,
    ) -> Self {
        assert!(channels >= 1 && nodes >= channels);
        let per_channel_bytes_per_cycle = total_gb_per_s * 1e9 / channels as f64 / clock_hz;
        let step = nodes / channels;
        MemorySystem {
            channels: (0..channels)
                .map(|c| MemoryChannel::new(c * step, per_channel_bytes_per_cycle, latency))
                .collect(),
            nodes,
        }
    }

    /// The channel index serving a directory slice (address region).
    pub(crate) fn channel_of(&self, dir_node: usize) -> usize {
        assert!(dir_node < self.nodes);
        dir_node * self.channels.len() / self.nodes
    }

    /// The network node where a directory's memory controller attaches.
    pub(crate) fn controller_node(&self, dir_node: usize) -> usize {
        self.channels[self.channel_of(dir_node)].node
    }

    /// Issues a line-sized request on behalf of `dir_node`'s slice and
    /// returns its completion time.
    pub(crate) fn request(&mut self, dir_node: usize, now: Cycle, bytes: u64) -> Cycle {
        let c = self.channel_of(dir_node);
        self.channels[c].request(now, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_request_costs_service_plus_latency() {
        let mut ch = MemoryChannel::new(0, 2.667, 200); // ≈ 8.8 GB/s ÷ 4 at 3.3 GHz
        let done = ch.request(Cycle(0), 32);
        // 32 B at 2.667 B/cycle = 12 cycles service + 200 latency.
        assert_eq!(done, Cycle(212));
    }

    #[test]
    fn back_to_back_requests_queue_on_bandwidth() {
        let mut ch = MemoryChannel::new(0, 2.667, 200);
        let a = ch.request(Cycle(0), 32);
        let b = ch.request(Cycle(0), 32);
        assert_eq!(b - a, 12, "second transfer waits one service time");
    }

    #[test]
    fn higher_bandwidth_shrinks_service() {
        let mut slow = MemoryChannel::new(0, 2.667, 200);
        let mut fast = MemoryChannel::new(0, 16.0, 200);
        let mut done_slow = Cycle(0);
        let mut done_fast = Cycle(0);
        for _ in 0..10 {
            done_slow = slow.request(Cycle(0), 32);
            done_fast = fast.request(Cycle(0), 32);
        }
        assert!(done_fast < done_slow);
    }

    /// Table 3's 16-node system: 4 channels, 8.8 GB/s total, 200-cycle
    /// latency at 3.3 GHz.
    fn paper_16() -> MemorySystem {
        MemorySystem::new(16, 4, 8.8, 200, 3.3e9)
    }

    #[test]
    fn interleaving_covers_all_channels() {
        let m = paper_16();
        assert_eq!(m.channels.len(), 4);
        let mut seen = [false; 4];
        for dir in 0..16 {
            seen[m.channel_of(dir)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Quadrant mapping: nodes 0–3 → channel 0 at node 0, etc.
        assert_eq!(m.channel_of(0), 0);
        assert_eq!(m.channel_of(5), 1);
        assert_eq!(m.controller_node(5), 4);
        assert_eq!(m.channel_of(15), 3);
    }

    #[test]
    fn paper_64_has_8_channels() {
        let m = MemorySystem::new(64, 8, 8.8, 200, 3.3e9);
        assert_eq!(m.channels.len(), 8);
        assert!(m.controller_node(63) < 64);
    }

    #[test]
    fn system_request_routes_to_its_channel() {
        let mut m = paper_16();
        let first = m.request(5, Cycle(10), 32);
        let service = first - Cycle(10 + 200);
        assert!(service > 0);
        // Node 6 shares node 5's channel and queues one service time
        // behind it; node 0's channel is idle.
        assert_eq!(m.request(6, Cycle(10), 32), first + service);
        assert_eq!(m.request(0, Cycle(10), 32), first);
    }
}
