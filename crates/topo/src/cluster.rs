//! Multi-rack composition and server grouping.
//!
//! TPUv4 composes 4×4×4 racks ("cubes") into larger 3-D tori by programming
//! the optical circuit switches attached to each cube face (§4, Fig 5a); a
//! 4096-chip deployment is 64 cubes. We model a row of racks joined along
//! the Z dimension: rack `r` occupies the Z slab `[4r, 4r+4)` of one large
//! torus, and the inter-slab links are the OCS-provided cables. Within a
//! rack, chips are grouped four to a server (a 2×2×1 footprint), matching
//! "16 multi-accelerator servers, each with 4 TPU chips".

use crate::coords::{Coord3, Dim, Shape3};
use crate::occupancy::Occupancy;

/// Chips per multi-accelerator server.
pub const CHIPS_PER_SERVER: usize = 4;

/// A row of TPUv4 racks joined along Z into one torus.
#[derive(Debug, Clone)]
pub struct Cluster {
    occ: Occupancy,
    rack_shape: Shape3,
    racks: usize,
}

/// Identifier of a server within a cluster: (rack, index within rack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId {
    /// Rack index.
    pub rack: usize,
    /// Server index within the rack (0..16).
    pub server: usize,
}

impl Cluster {
    /// `racks` cubes of `rack_shape` joined along Z.
    pub fn new(racks: usize, rack_shape: Shape3) -> Self {
        assert!(racks >= 1, "need at least one rack");
        let shape = Shape3::new(
            rack_shape.extent(Dim::X),
            rack_shape.extent(Dim::Y),
            rack_shape.extent(Dim::Z) * racks,
        );
        Cluster {
            occ: Occupancy::new(shape),
            rack_shape,
            racks,
        }
    }

    /// The standard TPUv4 composition: `racks` 4×4×4 cubes.
    pub fn tpu_v4(racks: usize) -> Self {
        Cluster::new(racks, Shape3::rack_4x4x4())
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Shape of one rack.
    pub fn rack_shape(&self) -> Shape3 {
        self.rack_shape
    }

    /// Occupancy (slices, failures) over the composed torus.
    pub fn occupancy(&self) -> &Occupancy {
        &self.occ
    }

    /// Mutable occupancy.
    pub fn occupancy_mut(&mut self) -> &mut Occupancy {
        &mut self.occ
    }

    /// Which rack a chip belongs to.
    pub fn rack_of(&self, c: Coord3) -> usize {
        c.get(Dim::Z) / self.rack_shape.extent(Dim::Z)
    }

    /// Which server a chip belongs to: servers are 2×2×1 footprints
    /// (4 chips) tiled over each rack layer.
    pub fn server_of(&self, c: Coord3) -> ServerId {
        let rack = self.rack_of(c);
        let local_z = c.get(Dim::Z) % self.rack_shape.extent(Dim::Z);
        let sx = c.get(Dim::X) / 2;
        let sy = c.get(Dim::Y) / 2;
        let per_row = self.rack_shape.extent(Dim::X) / 2;
        let per_layer = per_row * (self.rack_shape.extent(Dim::Y) / 2);
        ServerId {
            rack,
            server: local_z * per_layer + sy * per_row + sx,
        }
    }

    /// Servers in a rack.
    pub fn servers_per_rack(&self) -> usize {
        self.rack_shape.volume() / CHIPS_PER_SERVER
    }
}

/// A partition of a multi-rack torus into contiguous rack groups along Z.
///
/// Rack groups are the pod simulator's shard domains: group `g` owns racks
/// `[g·group_racks, (g+1)·group_racks)`, i.e. the Z slab
/// `[g·group_racks·rack_z, (g+1)·group_racks·rack_z)` of the composed
/// torus. The partition is a pure function of the cluster geometry — never
/// of worker count — so a sharded run's logical decomposition is identical
/// no matter how many OS threads execute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RackGroupPartition {
    racks: usize,
    group_racks: usize,
    rack_shape: Shape3,
}

impl RackGroupPartition {
    /// Partition `racks` racks of `rack_shape` into groups of
    /// `group_racks`. `None` unless `group_racks` divides `racks` evenly
    /// (ragged groups would make group geometry index-dependent).
    pub fn new(racks: usize, group_racks: usize, rack_shape: Shape3) -> Option<Self> {
        if racks == 0 || group_racks == 0 || !racks.is_multiple_of(group_racks) {
            return None;
        }
        Some(RackGroupPartition {
            racks,
            group_racks,
            rack_shape,
        })
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.racks / self.group_racks
    }

    /// Racks per group.
    pub fn group_racks(&self) -> usize {
        self.group_racks
    }

    /// Total racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// The torus shape of one group, viewed as a standalone cluster.
    pub fn group_shape(&self) -> Shape3 {
        Shape3::new(
            self.rack_shape.extent(Dim::X),
            self.rack_shape.extent(Dim::Y),
            self.rack_shape.extent(Dim::Z) * self.group_racks,
        )
    }

    /// Z extent of one group's slab.
    pub fn group_z(&self) -> usize {
        self.rack_shape.extent(Dim::Z) * self.group_racks
    }

    /// Which group a pod-global chip coordinate belongs to.
    pub fn group_of(&self, c: Coord3) -> usize {
        c.get(Dim::Z) / self.group_z()
    }

    /// Z offset of a group's slab in the pod torus.
    pub fn z_offset(&self, group: usize) -> usize {
        group * self.group_z()
    }

    /// Map a group-local coordinate to the pod-global torus.
    pub fn to_pod(&self, group: usize, local: Coord3) -> Coord3 {
        Coord3::new(
            local.get(Dim::X),
            local.get(Dim::Y),
            local.get(Dim::Z) + self.z_offset(group),
        )
    }

    /// Map a pod-global coordinate to `(group, group-local coordinate)`.
    pub fn to_local(&self, c: Coord3) -> (usize, Coord3) {
        let group = self.group_of(c);
        (
            group,
            Coord3::new(
                c.get(Dim::X),
                c.get(Dim::Y),
                c.get(Dim::Z) - self.z_offset(group),
            ),
        )
    }

    /// True when the axis-aligned box `[origin, origin+extent)` lies
    /// entirely inside one group's slab — the containment invariant every
    /// delegated admission must satisfy (verify CTL408).
    pub fn contains(&self, origin: Coord3, extent: Shape3) -> bool {
        let z0 = origin.get(Dim::Z);
        let ez = extent.extent(Dim::Z);
        if ez == 0 {
            return false;
        }
        z0 / self.group_z() == (z0 + ez - 1) / self.group_z()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpu_v4_dimensions() {
        let c = Cluster::tpu_v4(2);
        assert_eq!(c.occupancy().shape(), Shape3::new(4, 4, 8));
        assert_eq!(c.racks(), 2);
        assert_eq!(c.servers_per_rack(), 16);
    }

    #[test]
    fn rack_of_partitions_z() {
        let c = Cluster::tpu_v4(2);
        assert_eq!(c.rack_of(Coord3::new(0, 0, 3)), 0);
        assert_eq!(c.rack_of(Coord3::new(0, 0, 4)), 1);
        assert_eq!(c.rack_of(Coord3::new(3, 3, 7)), 1);
    }

    #[test]
    fn server_grouping_is_2x2x1() {
        let c = Cluster::tpu_v4(1);
        let s = c.server_of(Coord3::new(0, 0, 0));
        assert_eq!(s, c.server_of(Coord3::new(1, 1, 0)));
        assert_ne!(s, c.server_of(Coord3::new(2, 0, 0)));
        assert_ne!(s, c.server_of(Coord3::new(0, 0, 1)));
        // 16 distinct servers cover the rack.
        let mut servers: Vec<ServerId> = c
            .occupancy()
            .shape()
            .coords()
            .map(|ch| c.server_of(ch))
            .collect();
        servers.sort();
        servers.dedup();
        assert_eq!(servers.len(), 16);
    }

    #[test]
    fn rack_groups_partition_the_pod_torus() {
        // The paper's pod: 64 racks in groups of 4 → 16 shard domains.
        let p = RackGroupPartition::new(64, 4, Shape3::rack_4x4x4()).expect("64 % 4 == 0");
        assert_eq!(p.groups(), 16);
        assert_eq!(p.group_shape(), Shape3::new(4, 4, 16));
        assert_eq!(p.group_z(), 16);
        assert_eq!(p.group_of(Coord3::new(0, 0, 15)), 0);
        assert_eq!(p.group_of(Coord3::new(0, 0, 16)), 1);
        // Round-trip local ↔ pod coordinates.
        let pod = p.to_pod(3, Coord3::new(1, 2, 5));
        assert_eq!(pod, Coord3::new(1, 2, 53));
        assert_eq!(p.to_local(pod), (3, Coord3::new(1, 2, 5)));
        // Containment: a 4×4×4 slice at the slab edge stays inside; one
        // straddling the boundary does not.
        assert!(p.contains(Coord3::new(0, 0, 12), Shape3::new(4, 4, 4)));
        assert!(!p.contains(Coord3::new(0, 0, 14), Shape3::new(4, 4, 4)));
        // Ragged partitions are refused.
        assert!(RackGroupPartition::new(6, 4, Shape3::rack_4x4x4()).is_none());
        assert!(RackGroupPartition::new(0, 4, Shape3::rack_4x4x4()).is_none());
    }
}
