//! WAN topologies modeled on the paper's two deployments (§IX):
//!
//! - **Continent scale**: 5 regions on the same continent, two availability
//!   zones per region, replicas and clients spread across them.
//! - **World scale**: 15 regions spread over all continents.
//!
//! Latencies are one-way, in milliseconds, synthetic but shaped on typical
//! public-cloud inter-region measurements: continent-scale one-way latencies
//! of 1–35 ms, world-scale 20–150 ms. The experiments depend on the *scale*
//! of the latency distribution, not on any particular provider's numbers.

use crate::time::SimDuration;

/// A named deployment topology: regions and a one-way latency matrix.
#[derive(Debug, Clone)]
pub struct Topology {
    name: &'static str,
    latency_ms: Vec<Vec<f64>>,
    /// One-way latency between two machines in the same region,
    /// different availability zones.
    intra_region_ms: f64,
    /// One-way latency between two co-located VMs on the same machine.
    same_machine_ms: f64,
}

impl Topology {
    /// The 5-region continent-scale deployment.
    pub fn continent() -> Topology {
        let m = vec![
            vec![0.0, 8.0, 16.0, 28.0, 35.0],
            vec![8.0, 0.0, 10.0, 22.0, 30.0],
            vec![16.0, 10.0, 0.0, 14.0, 24.0],
            vec![28.0, 22.0, 14.0, 0.0, 12.0],
            vec![35.0, 30.0, 24.0, 12.0, 0.0],
        ];
        Topology {
            name: "continent",
            latency_ms: m,
            intra_region_ms: 1.0,
            same_machine_ms: 0.05,
        }
    }

    /// The 15-region world-scale deployment. Regions are placed on a ring
    /// spanning the globe; one-way latency grows with ring distance from
    /// ~20 ms (neighbours) to ~150 ms (antipodes).
    pub fn world() -> Topology {
        let regions = 15usize;
        let mut m = vec![vec![0.0; regions]; regions];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i == j {
                    continue;
                }
                let d = (i as isize - j as isize).unsigned_abs();
                let ring = d.min(regions - d) as f64; // 1..=7
                *cell = 20.0 + 130.0 * (ring - 1.0) / 6.0;
            }
        }
        Topology {
            name: "world",
            latency_ms: m,
            intra_region_ms: 1.0,
            same_machine_ms: 0.05,
        }
    }

    /// A single-site LAN (for unit tests and microbenchmarks).
    pub fn lan() -> Topology {
        Topology {
            name: "lan",
            latency_ms: vec![vec![0.0]],
            intra_region_ms: 0.2,
            same_machine_ms: 0.05,
        }
    }

    /// Topology name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.latency_ms.len()
    }

    /// One-way latency between two regions (same region = AZ latency).
    pub fn region_latency(&self, a: usize, b: usize) -> SimDuration {
        let ms = if a == b {
            self.intra_region_ms
        } else {
            self.latency_ms[a][b]
        };
        SimDuration::from_millis_f64(ms)
    }

    /// One-way latency between co-located VMs.
    pub fn same_machine_latency(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.same_machine_ms)
    }

    /// Median one-way inter-region latency (performance in a WAN "depends
    /// at least on the median latency", §IX).
    pub fn median_latency(&self) -> SimDuration {
        let mut all: Vec<f64> = Vec::new();
        for (i, row) in self.latency_ms.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if i != j {
                    all.push(v);
                }
            }
        }
        if all.is_empty() {
            return SimDuration::from_millis_f64(self.intra_region_ms);
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        SimDuration::from_millis_f64(all[all.len() / 2])
    }
}

/// Placement of simulation nodes onto regions and machines.
///
/// The paper packs multiple replica VMs per physical machine (§IX,
/// "we deployed more than one replica or client into a single machine");
/// `machines_per_region` controls that packing for the sensitivity
/// experiment (see the README "Substitutions" section).
#[derive(Debug, Clone)]
pub struct Placement {
    region_of: Vec<usize>,
    machine_of: Vec<usize>,
}

impl Placement {
    /// Spreads `count` nodes round-robin across regions, then across
    /// `machines_per_region` machines within each region.
    pub fn round_robin(topology: &Topology, count: usize, machines_per_region: usize) -> Self {
        assert!(machines_per_region >= 1, "need at least one machine");
        let regions = topology.regions();
        let mut region_of = Vec::with_capacity(count);
        let mut machine_of = Vec::with_capacity(count);
        let mut per_region_counter = vec![0usize; regions];
        for i in 0..count {
            let r = i % regions;
            region_of.push(r);
            // Global machine id = region * machines_per_region + slot.
            let slot = per_region_counter[r] % machines_per_region;
            per_region_counter[r] += 1;
            machine_of.push(r * machines_per_region + slot);
        }
        Placement {
            region_of,
            machine_of,
        }
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.region_of.len()
    }

    /// Returns `true` if no nodes are placed.
    pub fn is_empty(&self) -> bool {
        self.region_of.is_empty()
    }

    /// Region of a node.
    pub fn region(&self, node: usize) -> usize {
        self.region_of[node]
    }

    /// Machine of a node.
    pub fn machine(&self, node: usize) -> usize {
        self.machine_of[node]
    }

    /// Appends more nodes (e.g. clients after replicas) with the same
    /// round-robin policy.
    pub fn extend(&mut self, topology: &Topology, count: usize, machines_per_region: usize) {
        let start = self.len();
        let regions = topology.regions();
        for i in 0..count {
            let r = (start + i) % regions;
            self.region_of.push(r);
            self.machine_of
                .push(r * machines_per_region + (start + i) % machines_per_region);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continent_shape() {
        let t = Topology::continent();
        assert_eq!(t.regions(), 5);
        assert_eq!(t.name(), "continent");
        // Symmetric.
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(t.region_latency(a, b), t.region_latency(b, a));
            }
        }
        // Intra-region is cheaper than any inter-region.
        assert!(t.region_latency(0, 0) < t.region_latency(0, 1));
    }

    #[test]
    fn world_shape() {
        let t = Topology::world();
        assert_eq!(t.regions(), 15);
        // Ring distance monotonicity: neighbours cheaper than antipodes.
        assert!(t.region_latency(0, 1) < t.region_latency(0, 7));
        // Max one-way is ~150 ms.
        let max = t.region_latency(0, 7).as_millis_f64();
        assert!((149.0..151.0).contains(&max), "max {max}");
        // World median exceeds continent median (drives §IX latency gap).
        assert!(t.median_latency() > Topology::continent().median_latency());
    }

    #[test]
    fn placement_round_robin() {
        let t = Topology::continent();
        let p = Placement::round_robin(&t, 10, 2);
        assert_eq!(p.len(), 10);
        // Node 0 and node 5 are both in region 0.
        assert_eq!(p.region(0), 0);
        assert_eq!(p.region(5), 0);
        assert_eq!(p.region(3), 3);
        // Two machines per region: nodes 0 and 5 land on different machines.
        assert_ne!(p.machine(0), p.machine(5));
    }

    #[test]
    fn placement_extend() {
        let t = Topology::continent();
        let mut p = Placement::round_robin(&t, 5, 1);
        p.extend(&t, 5, 1);
        assert_eq!(p.len(), 10);
        assert_eq!(p.region(5), 0);
    }

    #[test]
    fn single_machine_packing_coalesces() {
        let t = Topology::continent();
        let p = Placement::round_robin(&t, 20, 1);
        // All nodes of region 0 share one machine.
        assert_eq!(p.machine(0), p.machine(5));
        assert_eq!(p.machine(5), p.machine(10));
    }

    #[test]
    fn lan_topology() {
        let t = Topology::lan();
        assert_eq!(t.regions(), 1);
        assert!(t.region_latency(0, 0).as_millis_f64() < 1.0);
    }
}
