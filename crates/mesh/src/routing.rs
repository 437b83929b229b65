//! Dimension-ordered (XY) routing.
//!
//! XY routing first corrects the X coordinate, then the Y coordinate. It
//! is minimal and — because it never turns from Y back to X — acyclic in
//! the channel-dependency graph, hence deadlock-free on a mesh without
//! extra virtual-channel restrictions.

/// The five router ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Toward smaller X.
    West,
    /// Toward larger X.
    East,
    /// Toward smaller Y.
    North,
    /// Toward larger Y.
    South,
    /// The local processing element.
    Local,
}

impl Port {
    /// All ports, indexable by [`Port::index`].
    pub const ALL: [Port; 5] = [
        Port::West,
        Port::East,
        Port::North,
        Port::South,
        Port::Local,
    ];

    /// Dense index 0..5. Opposite directions are index pairs `(0, 1)` and
    /// `(2, 3)`, so `index ^ 1` is the [`opposite`](Self::opposite) port's.
    pub const fn index(self) -> usize {
        match self {
            Port::West => 0,
            Port::East => 1,
            Port::North => 2,
            Port::South => 3,
            Port::Local => 4,
        }
    }

    /// The port a neighbouring router receives on when this router sends
    /// out of `self` (East↔West, North↔South).
    pub fn opposite(self) -> Port {
        match self {
            Port::West => Port::East,
            Port::East => Port::West,
            Port::North => Port::South,
            Port::South => Port::North,
            Port::Local => Port::Local,
        }
    }
}

/// Node index → (x, y) on a `width`-wide mesh.
pub fn coords(node: usize, width: usize) -> (usize, usize) {
    (node % width, node / width)
}

/// (x, y) → node index.
pub fn node_at(x: usize, y: usize, width: usize) -> usize {
    y * width + x
}

/// The XY-routing output port at router `here` for a packet destined to
/// `dst`.
pub fn xy_route(here: usize, dst: usize, width: usize) -> Port {
    let (hx, hy) = coords(here, width);
    let (dx, dy) = coords(dst, width);
    if dx > hx {
        Port::East
    } else if dx < hx {
        Port::West
    } else if dy > hy {
        Port::South
    } else if dy < hy {
        Port::North
    } else {
        Port::Local
    }
}

/// Number of hops between two nodes under minimal routing (the number of
/// routers traversed minus one).
pub(crate) fn hop_distance(a: usize, b: usize, width: usize) -> usize {
    let (ax, ay) = coords(a, width);
    let (bx, by) = coords(b, width);
    ax.abs_diff(bx) + ay.abs_diff(by)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        for node in 0..16 {
            let (x, y) = coords(node, 4);
            assert_eq!(node_at(x, y, 4), node);
        }
    }

    #[test]
    fn port_indices_dense_and_opposites() {
        for (i, p) in Port::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.opposite().opposite(), *p);
            if *p != Port::Local {
                assert_eq!(p.opposite().index(), i ^ 1);
            }
        }
    }

    #[test]
    fn xy_corrects_x_first() {
        // From (0,0) to (3,3) on a 4-wide mesh: go East first.
        assert_eq!(xy_route(0, 15, 4), Port::East);
        // From (3,0) to (3,3): X aligned, go South.
        assert_eq!(xy_route(3, 15, 4), Port::South);
        // At destination: eject.
        assert_eq!(xy_route(15, 15, 4), Port::Local);
        // Westward and northward.
        assert_eq!(xy_route(3, 0, 4), Port::West);
        assert_eq!(xy_route(12, 0, 4), Port::North);
    }

    #[test]
    fn route_always_reduces_distance() {
        let width = 4;
        for src in 0..16 {
            for dst in 0..16 {
                if src == dst {
                    continue;
                }
                let mut here = src;
                let mut hops = 0;
                loop {
                    let p = xy_route(here, dst, width);
                    if p == Port::Local {
                        break;
                    }
                    let (x, y) = coords(here, width);
                    here = match p {
                        Port::East => node_at(x + 1, y, width),
                        Port::West => node_at(x - 1, y, width),
                        Port::South => node_at(x, y + 1, width),
                        Port::North => node_at(x, y - 1, width),
                        Port::Local => unreachable!(),
                    };
                    hops += 1;
                    assert!(hops <= 6, "route must terminate");
                }
                assert_eq!(here, dst);
                assert_eq!(hops, hop_distance(src, dst, width));
            }
        }
    }
}
