//! Collective operations over the communicator.
//!
//! Broadcast and reduction use binomial trees; barrier is a reduce to
//! rank 0 followed by a broadcast. Collectives run on reserved
//! negative tags so they never collide with point-to-point traffic.

use crate::comm::Comm;
use crate::datatype::{pack_f64s, unpack_f64s};
use std::io;

const TAG_BARRIER_UP: i32 = -1;
const TAG_BARRIER_DOWN: i32 = -2;
const TAG_BCAST: i32 = -3;
const TAG_REDUCE: i32 = -4;

/// Element-wise reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    fn f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl Comm {
    /// Binomial-tree broadcast of raw bytes from `root`. Every rank
    /// returns the payload.
    pub fn bcast(&self, root: u32, data: Vec<u8>) -> io::Result<Vec<u8>> {
        let size = self.size();
        if size == 1 {
            return Ok(data);
        }
        // Work in root-relative rank space.
        let vrank = (self.rank() + size - root) % size;
        let data = if vrank == 0 {
            data
        } else {
            // Parent: clear the lowest set bit of the virtual rank.
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % size;
            let (_, _, payload) = self.recv(Some(parent), Some(TAG_BCAST))?;
            payload
        };
        // Forward to children: set bits above my highest set bit.
        let mut mask = 1u32;
        while mask < size {
            if vrank & mask != 0 {
                break;
            }
            let child = vrank | mask;
            if child < size {
                let dest = (child + root) % size;
                self.send_internal(dest, TAG_BCAST, &data)?;
            }
            mask <<= 1;
        }
        Ok(data)
    }

    /// Binomial-tree reduction of an `f64` vector to `root`.
    /// Returns `Some(result)` on root, `None` elsewhere.
    pub fn reduce_f64(
        &self,
        root: u32,
        mut local: Vec<f64>,
        op: ReduceOp,
    ) -> io::Result<Option<Vec<f64>>> {
        let size = self.size();
        let vrank = (self.rank() + size - root) % size;
        let mut mask = 1u32;
        while mask < size {
            if vrank & mask == 0 {
                let child = vrank | mask;
                if child < size {
                    let (_, _, bytes) = self.recv(Some((child + root) % size), Some(TAG_REDUCE))?;
                    let other = unpack_f64s(&bytes)?;
                    combine_f64(&mut local, &other, op)?;
                }
            } else {
                let parent = vrank & !mask;
                self.send_internal((parent + root) % size, TAG_REDUCE, &pack_f64s(&local))?;
                return Ok(None);
            }
            mask <<= 1;
        }
        Ok(Some(local))
    }

    /// Reduce + broadcast.
    pub fn allreduce_f64(&self, local: Vec<f64>, op: ReduceOp) -> io::Result<Vec<f64>> {
        let reduced = self.reduce_f64(0, local, op)?;
        let bytes = self.bcast(0, reduced.map(|v| pack_f64s(&v)).unwrap_or_default())?;
        unpack_f64s(&bytes)
    }

    /// Barrier: binomial reduce of nothing to rank 0, then broadcast.
    pub fn barrier(&self) -> io::Result<()> {
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        let vrank = self.rank(); // root fixed at 0
        let mut mask = 1u32;
        while mask < size {
            if vrank & mask == 0 {
                let child = vrank | mask;
                if child < size {
                    self.recv(Some(child), Some(TAG_BARRIER_UP))?;
                }
            } else {
                let parent = vrank & !mask;
                self.send_internal(parent, TAG_BARRIER_UP, &[])?;
                // Await release.
                self.recv(Some(parent), Some(TAG_BARRIER_DOWN))?;
                // Release own children (bits below mask).
                let mut m2 = mask >> 1;
                while m2 > 0 {
                    let child = vrank | m2;
                    if child < size && child != vrank {
                        self.send_internal(child, TAG_BARRIER_DOWN, &[])?;
                    }
                    m2 >>= 1;
                }
                return Ok(());
            }
            mask <<= 1;
        }
        // Rank 0: release children.
        let mut m2 = mask >> 1;
        while m2 > 0 {
            let child = m2;
            if child < size {
                self.send_internal(child, TAG_BARRIER_DOWN, &[])?;
            }
            m2 >>= 1;
        }
        Ok(())
    }
}

fn combine_f64(local: &mut [f64], other: &[f64], op: ReduceOp) -> io::Result<()> {
    if other.len() != local.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "reduce length mismatch",
        ));
    }
    for (a, b) in local.iter_mut().zip(other) {
        *a = op.f64(*a, *b);
    }
    Ok(())
}
