//! Face-ghost exchange over the cubic process grid.
//!
//! Each exchange swaps one face with each of the up-to-six face
//! neighbours, low side then high side along each axis, via combined
//! sendrecv (deadlock-free under the runtime's eager protocol). The faces
//! are real where the field exists (`Some`) and virtual payloads of the
//! same logical size where it does not, so both fidelities make the same
//! calls and price the same messages.

use crate::mesh::{face_index, Decomposition, FaceGhosts, Field3};
use mpisim::{Comm, Payload, Proc, Recvd, Src, TagSel};

/// Swap `mine` with the neighbour across `(axis, side)`: my face travels
/// towards that side and the neighbour's opposite face arrives.
fn swap_face(
    p: &mut Proc,
    comm: &Comm,
    nbr: usize,
    axis: usize,
    side: usize,
    mine: Payload,
) -> Recvd<f64> {
    // A face travelling towards the low side of `axis` is tagged
    // 300 + 2·axis, towards the high side one more.
    let towards = |side: usize| 300 + 2 * axis as i32 + side as i32;
    comm.sendrecv_payload(
        p,
        nbr,
        towards(side),
        mine,
        Src::Rank(nbr),
        TagSel::Is(towards(1 - side)),
    )
}

/// Exchange the boundary faces of `field` with all face neighbours.
/// Returns the received ghosts: `None` at global boundaries and
/// everywhere when the field does not exist.
pub fn exchange_faces(
    p: &mut Proc,
    comm: &Comm,
    decomp: &Decomposition,
    field: Option<&Field3>,
) -> FaceGhosts {
    let mut ghosts = FaceGhosts::default();
    let s2 = decomp.s * decomp.s;
    for axis in 0..3 {
        for side in 0..2 {
            if let Some(nbr) = decomp.neighbor(axis, side) {
                let mine = Payload::maybe(field.map(|f| f.face(axis, side)), s2);
                let got = swap_face(p, comm, nbr, axis, side, mine);
                ghosts.faces[face_index(axis, side)] = field.map(|_| got.data);
            }
        }
    }
    ghosts
}

/// Exchange nodal boundary-face values (size `(s+1)²`) for the
/// `CommSyncPosVel` section. Where the nodal array exists the received
/// values are *checked* against the local copies of the shared nodes —
/// duplicated nodes must agree bit-for-bit if the nodal kernels are truly
/// decomposition-independent.
pub fn sync_shared_nodes(p: &mut Proc, comm: &Comm, decomp: &Decomposition, nodal: Option<&[f64]>) {
    let sn = decomp.s + 1;
    let idx = |i: usize, j: usize, k: usize| (k * sn + j) * sn + i;
    let extract = |nodal: &[f64], axis: usize, side: usize| -> Vec<f64> {
        let fixed = if side == 0 { 0 } else { sn - 1 };
        let mut out = Vec::with_capacity(sn * sn);
        for b in 0..sn {
            for a in 0..sn {
                let (i, j, k) = match axis {
                    0 => (fixed, a, b),
                    1 => (a, fixed, b),
                    _ => (a, b, fixed),
                };
                out.push(nodal[idx(i, j, k)]);
            }
        }
        out
    };
    for axis in 0..3 {
        for side in 0..2 {
            if let Some(nbr) = decomp.neighbor(axis, side) {
                let mine = nodal.map(|n| extract(n, axis, side));
                let payload = Payload::maybe(mine.clone(), sn * sn);
                let got = swap_face(p, comm, nbr, axis, side, payload);
                // The neighbour's copy of our shared face must be
                // identical: both ranks integrate the same nodal formula
                // over the same global coordinates.
                if let Some(mine) = mine {
                    assert_eq!(
                        got.data, mine,
                        "shared nodal face disagrees with neighbour {nbr} \
                         (axis {axis}, side {side})"
                    );
                }
            }
        }
    }
}
