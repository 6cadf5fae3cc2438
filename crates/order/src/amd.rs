//! Approximate minimum degree (AMD) ordering on a quotient graph.
//!
//! The algorithm of Amestoy, Davis & Duff, *An approximate minimum degree ordering
//! algorithm*, SIAM J. Matrix Anal. Appl. 17 (1996), the ordering CHOLMOD tries first.
//! Elimination is simulated on a quotient graph stored in one workspace array that
//! never grows beyond the pattern plus elbow room: an eliminated pivot becomes an
//! *element* (the clique its elimination creates, kept as a list of variables), and a
//! variable's list holds the elements it belongs to followed by the variables it is
//! still adjacent to.  Per pivot:
//!
//! - **element absorption** — every element adjacent to the pivot merges into the new
//!   one;
//! - **approximate external degrees** — `|Lₑ \ Lₘₑ|` for every element next to the new
//!   one, summed instead of computing the exact degree of a union;
//! - **supervariables** — variables of the new element with identical lists (found by
//!   hashing, then compared) merge and are eliminated together ("mass elimination"
//!   when the new element is all that is left of a variable);
//! - **aggressive absorption** — an element whose variables all lie in the new element
//!   is absorbed although the pivot was not adjacent to it.
//!
//! Rows denser than `max(16, 10 √n)` are set aside and ordered last.  The result is
//! postordered along the assembly tree (each node's largest child last), every
//! element preceded by the variables it eliminated with it, so the columns a
//! supernode eliminates together stay contiguous.

use crate::graph::AdjGraph;
use feti_sparse::Permutation;

/// "No vertex" in the linked lists and the assembly tree.
const EMPTY: isize = -1;

/// The involution that marks an index as a reference of another kind (an absorbed
/// element's parent, a hash-bucket head, an eliminated variable's front size):
/// `flip(i) < EMPTY` for every `i >= 0` and `flip(EMPTY) == EMPTY`.
fn flip(i: isize) -> isize {
    -i - 2
}

/// Computes an approximate-minimum-degree ordering of `g`.
///
/// The returned permutation maps new indices to old indices (elimination order).
#[must_use]
pub fn approximate_minimum_degree(g: &AdjGraph) -> Permutation {
    if g.num_vertices() == 0 {
        return Permutation::from_vec(Vec::new());
    }
    let nnz: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
    // Elbow room beyond the `nnz + n` the elimination needs at least, so that
    // compaction is rare.
    let mut q = QuotientGraph::new(g, nnz + nnz / 5 + 2 * g.num_vertices());
    q.eliminate();
    Permutation::from_vec(q.into_order())
}

/// The quotient graph and every list the elimination keeps, indexed by vertex.  A
/// vertex is first a variable, then (when chosen as pivot) an element, unless it is
/// absorbed into another variable or element before.
struct QuotientGraph {
    n: usize,
    /// The lists, `iw[pe[i]..][..len[i]]`; free space starts at `pfree`.
    iw: Vec<isize>,
    pfree: usize,
    /// Start of each list; `flip(parent)` once absorbed, [`EMPTY`] once empty.
    pe: Vec<isize>,
    len: Vec<isize>,
    /// Variables: how many entries at the front of the list are elements.  Elements:
    /// `flip` of the front size.  Absorbed variables and dense rows: [`EMPTY`].
    elen: Vec<isize>,
    /// Supervariable size (negated while in the element being built; 0 once absorbed
    /// into another supervariable); for an element, the variables it eliminated.
    nv: Vec<isize>,
    /// Approximate external degree of a variable; of an element, the summed size of
    /// its variables.
    degree: Vec<isize>,
    /// Element marks relative to `wflg` (`|Lₑ \ Lₘₑ|` during a degree update); 0 for
    /// an absorbed element.
    w: Vec<isize>,
    wflg: isize,
    /// Degree lists (`head` by degree, doubly linked through `next` / `last`), also
    /// the hash buckets of supervariable detection.
    head: Vec<isize>,
    next: Vec<isize>,
    last: Vec<isize>,
    mindeg: usize,
    /// Variables eliminated so far (dense rows count from the start).
    nel: usize,
    /// Largest element degree so far: how far `wflg` must advance to clear `w`.
    lemax: isize,
    /// Compactions of `iw` so far.
    #[cfg(test)]
    compactions: usize,
}

impl QuotientGraph {
    /// The quotient graph of `g` before any elimination, with degree lists built and
    /// isolated vertices and dense rows taken out, in a workspace of `iwlen` entries:
    /// at least the pattern's plus `n`, so that a compaction always leaves room for
    /// the element being built.
    fn new(g: &AdjGraph, iwlen: usize) -> Self {
        let n = g.num_vertices();
        let mut iw = vec![0isize; iwlen];
        let mut pe = vec![0isize; n];
        let mut len = vec![0isize; n];
        let mut pfree = 0;
        for v in 0..n {
            pe[v] = pfree as isize;
            for &u in g.neighbors(v).iter().filter(|&&u| u != v) {
                iw[pfree] = u as isize;
                pfree += 1;
            }
            len[v] = pfree as isize - pe[v];
        }
        let mut q = Self {
            n,
            iw,
            pfree,
            pe,
            degree: len.clone(),
            len,
            elen: vec![0; n],
            nv: vec![1; n],
            w: vec![1; n],
            wflg: 0,
            head: vec![EMPTY; n],
            next: vec![EMPTY; n],
            last: vec![EMPTY; n],
            mindeg: 0,
            nel: 0,
            lemax: 0,
            #[cfg(test)]
            compactions: 0,
        };
        q.clear_flag();
        let dense = ((10.0 * (n as f64).sqrt()) as isize).max(16).min(n as isize);
        for i in 0..n {
            let deg = q.degree[i];
            if deg == 0 {
                // Isolated: eliminated now, a root of the assembly tree.
                q.elen[i] = flip(1);
                q.nel += 1;
                q.pe[i] = EMPTY;
                q.w[i] = 0;
            } else if deg > dense {
                // Dense: set aside, ordered last.
                q.nv[i] = 0;
                q.elen[i] = EMPTY;
                q.nel += 1;
                q.pe[i] = EMPTY;
            } else {
                q.link(i, deg as usize);
            }
        }
        q
    }

    /// Resets every live mark of `w` to 1 when `wflg` would overflow (or on first use).
    fn clear_flag(&mut self) {
        if self.wflg < 2 || self.wflg >= isize::MAX - self.n as isize {
            self.w.iter_mut().filter(|x| **x != 0).for_each(|x| *x = 1);
            self.wflg = 2;
        }
    }

    /// Puts variable `i` at the head of the list of degree `deg`.
    fn link(&mut self, i: usize, deg: usize) {
        let inext = self.head[deg];
        if inext != EMPTY {
            self.last[inext as usize] = i as isize;
        }
        self.next[i] = inext;
        self.last[i] = EMPTY;
        self.head[deg] = i as isize;
        self.degree[i] = deg as isize;
    }

    /// Takes variable `i` out of its degree list.
    fn unlink(&mut self, i: usize) {
        let (ilast, inext) = (self.last[i], self.next[i]);
        if inext != EMPTY {
            self.last[inext as usize] = ilast;
        }
        if ilast == EMPTY {
            self.head[self.degree[i] as usize] = inext;
        } else {
            self.next[ilast as usize] = inext;
        }
    }

    /// Eliminates every variable, one pivot (supervariable) at a time.
    fn eliminate(&mut self) {
        while self.nel < self.n {
            let me = self.select_pivot();
            let elenme = self.elen[me];
            let mut nvpiv = self.nv[me];
            self.nel += nvpiv as usize;
            self.nv[me] = -nvpiv;
            let (pme1, pme2, mut degme) = self.construct_element(me, elenme);
            self.degree[me] = degme;
            self.pe[me] = pme1 as isize;
            self.len[me] = (pme2 - pme1) as isize;
            // The front size of the pivot, used to order children in the postorder.
            self.elen[me] = flip(nvpiv + degme);
            self.clear_flag();
            self.external_element_degrees(pme1, pme2);
            self.update_degrees(me, pme1, pme2, &mut degme, &mut nvpiv);
            self.degree[me] = degme;
            self.lemax = self.lemax.max(degme);
            self.wflg += self.lemax;
            self.clear_flag();
            self.detect_supervariables(pme1, pme2);
            let p = self.relink_element_variables(pme1, pme2, degme);
            self.nv[me] = nvpiv;
            self.len[me] = (p - pme1) as isize;
            if p == pme1 {
                // Nothing is left of the pivot element: a root of the assembly tree.
                self.pe[me] = EMPTY;
                self.w[me] = 0;
            }
            if elenme != 0 {
                // Built in free space: give back what absorbed variables vacated.
                self.pfree = p;
            }
        }
    }

    /// Takes a variable of least approximate degree out of its degree list.
    fn select_pivot(&mut self) -> usize {
        let deg = (self.mindeg..self.n).find(|&d| self.head[d] != EMPTY).expect("a variable left");
        self.mindeg = deg;
        let me = self.head[deg] as usize;
        self.unlink(me);
        me
    }

    /// Builds the new element `Lₘₑ`: the live variables of the pivot's own list and of
    /// every element it is adjacent to, each flagged by a negated `nv` and taken out of
    /// its degree list; the adjacent elements are absorbed.  Without adjacent elements
    /// the pivot's list is overwritten in place, otherwise the element is built in
    /// free space (compacting the workspace if it runs out).  Returns the element's
    /// range in `iw` and its degree.
    fn construct_element(&mut self, me: usize, elenme: isize) -> (usize, usize, isize) {
        let mut degme = 0;
        if elenme == 0 {
            let pme1 = self.pe[me] as usize;
            let mut pme2 = pme1;
            for p in pme1..pme1 + self.len[me] as usize {
                let i = self.iw[p] as usize;
                let nvi = self.nv[i];
                if nvi > 0 {
                    degme += nvi;
                    self.nv[i] = -nvi;
                    self.iw[pme2] = i as isize;
                    pme2 += 1;
                    self.unlink(i);
                }
            }
            return (pme1, pme2, degme);
        }
        let lenme = self.len[me];
        let mut p = self.pe[me];
        let mut pme1 = self.pfree;
        for knt1 in 1..=elenme + 1 {
            // The adjacent elements first, then the pivot's own variables.
            let (e, mut pj, ln) = if knt1 > elenme {
                (me, p, lenme - elenme)
            } else {
                let e = self.iw[p as usize] as usize;
                p += 1;
                (e, self.pe[e], self.len[e])
            };
            for knt2 in 1..=ln {
                let i = self.iw[pj as usize] as usize;
                pj += 1;
                let nvi = self.nv[i];
                if nvi <= 0 {
                    continue;
                }
                if self.pfree >= self.iw.len() {
                    // Record how far both lists were read, then compact.
                    self.pe[me] = if lenme == knt1 { EMPTY } else { p };
                    self.len[me] = lenme - knt1;
                    self.pe[e] = if ln == knt2 { EMPTY } else { pj };
                    self.len[e] = ln - knt2;
                    pme1 = self.compact(pme1);
                    pj = self.pe[e];
                    p = self.pe[me];
                }
                degme += nvi;
                self.nv[i] = -nvi;
                self.iw[self.pfree] = i as isize;
                self.pfree += 1;
                self.unlink(i);
            }
            if e != me {
                self.pe[e] = flip(me as isize);
                self.w[e] = 0;
            }
        }
        (pme1, self.pfree, degme)
    }

    /// Garbage collection: moves every live list to the front of `iw`, then the part
    /// of the new element built so far (`iw[pme1..pfree]`) after them.  Returns the
    /// element's new start.
    fn compact(&mut self, pme1: usize) -> usize {
        #[cfg(test)]
        {
            self.compactions += 1;
        }
        // Mark the start of each live list with its owner, keeping the entry it
        // displaces in `pe`.
        for j in 0..self.n {
            let pn = self.pe[j];
            if pn >= 0 {
                debug_assert!(self.len[j] > 0, "a live list is never empty");
                self.pe[j] = self.iw[pn as usize];
                self.iw[pn as usize] = flip(j as isize);
            }
        }
        let (mut psrc, mut pdst) = (0, 0);
        while psrc < pme1 {
            let j = flip(self.iw[psrc]);
            psrc += 1;
            if j >= 0 {
                let j = j as usize;
                self.iw[pdst] = self.pe[j];
                self.pe[j] = pdst as isize;
                pdst += 1;
                let rest = self.len[j] as usize - 1;
                self.iw.copy_within(psrc..psrc + rest, pdst);
                psrc += rest;
                pdst += rest;
            }
        }
        let built = self.pfree - pme1;
        self.iw.copy_within(pme1..self.pfree, pdst);
        self.pfree = pdst + built;
        pdst
    }

    /// Sets `w[e] - wflg` to `|Lₑ \ Lₘₑ|` for every live element `e` adjacent to a
    /// variable of the new element `iw[pme1..pme2]`.
    fn external_element_degrees(&mut self, pme1: usize, pme2: usize) {
        for pme in pme1..pme2 {
            let i = self.iw[pme] as usize;
            let eln = self.elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -self.nv[i];
            let wnvi = self.wflg - nvi;
            let p1 = self.pe[i] as usize;
            for p in p1..p1 + eln as usize {
                let e = self.iw[p] as usize;
                let we = self.w[e];
                if we >= self.wflg {
                    self.w[e] = we - nvi;
                } else if we != 0 {
                    self.w[e] = self.degree[e] + wnvi;
                }
            }
        }
    }

    /// For each variable of the new element `me`: prunes its list (absorbing the
    /// elements left with no variable outside `Lₘₑ`, dropping the variables now
    /// represented by `me`), bounds its degree, puts `me` first in its list and the
    /// variable in a hash bucket by the sum of its list — or, when `me` is all that is
    /// left of it, eliminates it with the pivot (mass elimination).
    fn update_degrees(
        &mut self,
        me: usize,
        pme1: usize,
        pme2: usize,
        degme: &mut isize,
        nvpiv: &mut isize,
    ) {
        for pme in pme1..pme2 {
            let i = self.iw[pme] as usize;
            let p1 = self.pe[i] as usize;
            let p2 = p1 + self.elen[i] as usize;
            let mut pn = p1;
            let mut hash = 0usize;
            let mut deg = 0isize;
            for p in p1..p2 {
                let e = self.iw[p] as usize;
                let we = self.w[e];
                if we == 0 {
                    continue;
                }
                let dext = we - self.wflg;
                if dext > 0 {
                    deg += dext;
                    self.iw[pn] = e as isize;
                    pn += 1;
                    hash = hash.wrapping_add(e);
                } else {
                    // Aggressive absorption: `Lₑ ⊆ Lₘₑ`.
                    self.pe[e] = flip(me as isize);
                    self.w[e] = 0;
                }
            }
            self.elen[i] = (pn - p1 + 1) as isize;
            let p3 = pn;
            for p in p2..p1 + self.len[i] as usize {
                let j = self.iw[p] as usize;
                let nvj = self.nv[j];
                if nvj > 0 {
                    deg += nvj;
                    self.iw[pn] = j as isize;
                    pn += 1;
                    hash = hash.wrapping_add(j);
                }
            }
            if self.elen[i] == 1 && p3 == pn {
                // Mass elimination: `i` is adjacent to `me` only.
                self.pe[i] = flip(me as isize);
                let nvi = -self.nv[i];
                *degme -= nvi;
                *nvpiv += nvi;
                self.nel += nvi as usize;
                self.nv[i] = 0;
                self.elen[i] = EMPTY;
                continue;
            }
            self.degree[i] = self.degree[i].min(deg);
            // `me` first: the old first element moves to the end of the elements, the
            // first variable to the end of the list (the list lost at least one
            // entry, the pivot or an absorbed element, so there is room).
            self.iw[pn] = self.iw[p3];
            self.iw[p3] = self.iw[p1];
            self.iw[p1] = me as isize;
            self.len[i] = (pn - p1 + 1) as isize;
            // Hash bucket: while a degree list of the same index is non-empty, its
            // head's `last` (otherwise unused) holds the bucket.
            let hash = hash % self.n;
            let j = self.head[hash];
            if j <= EMPTY {
                self.next[i] = flip(j);
                self.head[hash] = flip(i as isize);
            } else {
                self.next[i] = self.last[j as usize];
                self.last[j as usize] = i as isize;
            }
            self.last[i] = hash as isize;
        }
    }

    /// Merges the variables of the new element whose lists are identical (after `me`,
    /// which they all start with) into one supervariable, bucket by bucket; every
    /// bucket is emptied.
    fn detect_supervariables(&mut self, pme1: usize, pme2: usize) {
        for pme in pme1..pme2 {
            let i = self.iw[pme] as usize;
            if self.nv[i] >= 0 {
                continue;
            }
            let hash = self.last[i] as usize;
            let j = self.head[hash];
            let mut i = if j == EMPTY {
                EMPTY
            } else if j < EMPTY {
                self.head[hash] = EMPTY;
                flip(j)
            } else {
                let bucket = self.last[j as usize];
                self.last[j as usize] = EMPTY;
                bucket
            };
            while i != EMPTY && self.next[i as usize] != EMPTY {
                let iu = i as usize;
                let (ln, eln) = (self.len[iu], self.elen[iu]);
                let list = |q: &Self, v: usize| {
                    let p = q.pe[v] as usize;
                    p + 1..p + ln as usize
                };
                for p in list(self, iu) {
                    self.w[self.iw[p] as usize] = self.wflg;
                }
                let mut jlast = iu;
                let mut j = self.next[iu];
                while j != EMPTY {
                    let ju = j as usize;
                    let same = self.len[ju] == ln
                        && self.elen[ju] == eln
                        && list(self, ju).all(|p| self.w[self.iw[p] as usize] == self.wflg);
                    if same {
                        // `j` joins supervariable `i` (both sizes are negated here).
                        self.pe[ju] = flip(i);
                        self.nv[iu] += self.nv[ju];
                        self.nv[ju] = 0;
                        self.elen[ju] = EMPTY;
                        j = self.next[ju];
                        self.next[jlast] = j;
                    } else {
                        jlast = ju;
                        j = self.next[ju];
                    }
                }
                self.wflg += 1;
                i = self.next[iu];
            }
        }
    }

    /// Puts every principal variable of the new element back into a degree list
    /// under its new approximate external degree and compacts the element to them.
    /// Returns the element's new end.
    fn relink_element_variables(&mut self, pme1: usize, pme2: usize, degme: isize) -> usize {
        let nleft = (self.n - self.nel) as isize;
        let mut p = pme1;
        for pme in pme1..pme2 {
            let i = self.iw[pme] as usize;
            let nvi = -self.nv[i];
            if nvi <= 0 {
                continue;
            }
            self.nv[i] = nvi;
            let deg = (self.degree[i] + degme - nvi).min(nleft - nvi);
            self.link(i, deg as usize);
            self.mindeg = self.mindeg.min(deg as usize);
            self.iw[p] = i as isize;
            p += 1;
        }
        p
    }

    /// The elimination order: the elements in a postorder of the assembly tree, each
    /// preceded by the variables it absorbed, then the dense rows.
    fn into_order(self) -> Vec<usize> {
        let n = self.n;
        let nv = &self.nv;
        // Every vertex's parent: an absorbed element's absorber, an absorbed
        // variable's supervariable or element; roots and dense rows have none.
        let mut parent: Vec<isize> =
            self.pe.iter().map(|&p| if p < EMPTY { flip(p) } else { EMPTY }).collect();
        for i in 0..n {
            if nv[i] != 0 || parent[i] == EMPTY {
                continue;
            }
            // Follow absorbed variables up to the element that eliminated `i`, then
            // compress the path.
            let mut e = parent[i];
            while nv[e as usize] == 0 {
                e = parent[e as usize];
            }
            let mut j = i as isize;
            while nv[j as usize] == 0 {
                let up = parent[j as usize];
                parent[j as usize] = e;
                j = up;
            }
        }
        let front: Vec<isize> = self.elen.iter().map(|&x| flip(x)).collect();
        let mut start = vec![0usize; n];
        let mut placed = 0;
        for e in assembly_tree_postorder(&parent, nv, &front) {
            start[e] = placed;
            placed += nv[e] as usize;
        }
        // Absorbed variables take the first slots of their element's block, the
        // element itself the last; dense rows follow everything.
        let mut position = vec![0usize; n];
        for i in 0..n {
            if nv[i] != 0 {
                continue;
            }
            if parent[i] == EMPTY {
                position[i] = placed;
                placed += 1;
            } else {
                let e = parent[i] as usize;
                position[i] = start[e];
                start[e] += 1;
            }
        }
        let mut order = vec![0usize; n];
        for i in 0..n {
            let k = if nv[i] != 0 { start[i] } else { position[i] };
            order[k] = i;
        }
        order
    }
}

/// The elements (`nv > 0`) of the assembly tree given by `parent`, in postorder:
/// children before their parent, and among siblings the one with the largest front
/// (`front`) last, so it merges with its parent into one supernode.
fn assembly_tree_postorder(parent: &[isize], nv: &[isize], front: &[isize]) -> Vec<usize> {
    let n = parent.len();
    let mut child = vec![EMPTY; n];
    let mut sibling = vec![EMPTY; n];
    for j in (0..n).rev() {
        if nv[j] > 0 && parent[j] != EMPTY {
            let p = parent[j] as usize;
            sibling[j] = child[p];
            child[p] = j as isize;
        }
    }
    for i in 0..n {
        if nv[i] <= 0 || child[i] == EMPTY {
            continue;
        }
        // Move the child with the largest front (the last of equals) to the end.
        let (mut fprev, mut bigfprev, mut bigf, mut maxfront) = (EMPTY, EMPTY, EMPTY, EMPTY);
        let mut f = child[i];
        while f != EMPTY {
            if front[f as usize] >= maxfront {
                (maxfront, bigfprev, bigf) = (front[f as usize], fprev, f);
            }
            fprev = f;
            f = sibling[f as usize];
        }
        let fnext = sibling[bigf as usize];
        if fnext != EMPTY {
            if bigfprev == EMPTY {
                child[i] = fnext;
            } else {
                sibling[bigfprev as usize] = fnext;
            }
            sibling[bigf as usize] = EMPTY;
            sibling[fprev as usize] = bigf;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in 0..n {
        if nv[root] <= 0 || parent[root] != EMPTY {
            continue;
        }
        stack.push(root);
        while let Some(&i) = stack.last() {
            if child[i] == EMPTY {
                stack.pop();
                order.push(i);
                continue;
            }
            // Push the children so that the first one is on top.
            let first = stack.len();
            let mut f = child[i];
            while f != EMPTY {
                stack.push(f as usize);
                f = sibling[f as usize];
            }
            stack[first..].reverse();
            child[i] = EMPTY;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mindeg;
    use feti_sparse::CooMatrix;

    /// The graph of the symmetric pattern given by its off-diagonal pairs.
    fn graph(n: usize, edges: &[(usize, usize)]) -> AdjGraph {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        for &(i, j) in edges {
            coo.push(i, j, 1.0);
            coo.push(j, i, 1.0);
        }
        AdjGraph::from_pattern(&coo.to_csr())
    }

    /// 5-point (or, with `diagonals`, 9-point) grid of `nx × ny` vertices.
    fn grid(nx: usize, ny: usize, diagonals: bool) -> AdjGraph {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut edges = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                if i + 1 < nx {
                    edges.push((idx(i, j), idx(i + 1, j)));
                }
                if j + 1 < ny {
                    edges.push((idx(i, j), idx(i, j + 1)));
                }
                if diagonals && i + 1 < nx && j + 1 < ny {
                    edges.push((idx(i, j), idx(i + 1, j + 1)));
                    edges.push((idx(i + 1, j), idx(i, j + 1)));
                }
            }
        }
        graph(nx * ny, &edges)
    }

    /// `nnz(L)` (diagonal included) of the elimination of `g` in the order `p`, by
    /// elimination-graph simulation: the oracle every fill bound here is checked with.
    fn factor_nnz(g: &AdjGraph, p: &Permutation) -> usize {
        let n = g.num_vertices();
        let old_to_new = p.old_to_new();
        let mut adj: Vec<std::collections::BTreeSet<usize>> =
            (0..n).map(|v| g.neighbors(v).iter().map(|&w| old_to_new[w]).collect()).collect();
        let mut adj_new = vec![std::collections::BTreeSet::new(); n];
        for (v, set) in adj.drain(..).enumerate() {
            adj_new[old_to_new[v]] = set;
        }
        let mut nnz = 0;
        for k in 0..n {
            let later: Vec<usize> = adj_new[k].range(k + 1..).copied().collect();
            nnz += 1 + later.len();
            for (a, &x) in later.iter().enumerate() {
                for &y in &later[a + 1..] {
                    adj_new[x].insert(y);
                    adj_new[y].insert(x);
                }
            }
        }
        nnz
    }

    fn assert_permutation(p: &Permutation, n: usize) {
        let mut sorted = p.new_to_old().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_graphs_give_valid_permutations() {
        assert_eq!(approximate_minimum_degree(&AdjGraph::from_adjacency(vec![])).len(), 0);
        let isolated = graph(5, &[]);
        assert_permutation(&approximate_minimum_degree(&isolated), 5);
        let single = graph(1, &[]);
        assert_eq!(approximate_minimum_degree(&single).new_to_old(), &[0]);
        // Two paths and an isolated vertex.
        let disconnected = graph(7, &[(0, 1), (1, 2), (4, 5), (5, 6)]);
        assert_permutation(&approximate_minimum_degree(&disconnected), 7);
    }

    #[test]
    fn compaction_of_the_workspace_leaves_the_order_unchanged() {
        // The least workspace the elimination accepts (pattern + n) forces the
        // compaction path; it moves lists without reordering them, so the result is
        // that of the roomy default.
        for g in [grid(20, 20, false), grid(15, 12, true), two_per_node(&grid(9, 9, true))] {
            let n = g.num_vertices();
            let nnz: usize = (0..n).map(|v| g.degree(v)).sum();
            let mut tight = QuotientGraph::new(&g, nnz + n);
            tight.eliminate();
            assert!(tight.compactions > 0, "n = {n}: the tight workspace never ran out");
            let order = tight.into_order();
            assert_eq!(order, approximate_minimum_degree(&g).new_to_old(), "n = {n}");
        }
    }

    #[test]
    fn a_star_keeps_its_hub_for_last_and_fills_nothing() {
        for n in [8, 40, 400] {
            let edges: Vec<_> = (1..n).map(|leaf| (0, leaf)).collect();
            let star = graph(n, &edges);
            let p = approximate_minimum_degree(&star);
            assert_permutation(&p, n);
            assert_eq!(p.new_to_old()[n - 1], 0, "n = {n}");
            assert_eq!(factor_nnz(&star, &p), 2 * n - 1, "n = {n}");
        }
    }

    #[test]
    fn a_clique_is_one_supervariable() {
        let n = 12;
        let edges: Vec<_> = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        let clique = graph(n, &edges);
        let p = approximate_minimum_degree(&clique);
        assert_permutation(&p, n);
        assert_eq!(factor_nnz(&clique, &p), n * (n + 1) / 2);
    }

    #[test]
    fn a_dense_row_is_ordered_last() {
        // A 20 × 20 grid plus one vertex adjacent to all of it: degree 400 exceeds
        // max(16, 10 √401), so the row is set aside.
        let grid = grid(20, 20, false);
        let n = grid.num_vertices() + 1;
        let mut adj: Vec<Vec<usize>> = (0..n - 1)
            .map(|v| grid.neighbors(v).iter().copied().chain([n - 1]).collect())
            .collect();
        adj.push((0..n - 1).collect());
        let g = AdjGraph::from_adjacency(adj);
        let p = approximate_minimum_degree(&g);
        assert_permutation(&p, n);
        assert_eq!(p.new_to_old()[n - 1], n - 1);
    }

    /// Two unknowns per vertex of `nodes`, each coupled to everything its vertex is
    /// (as in 2D elasticity): every pair is indistinguishable, one supervariable.
    fn two_per_node(nodes: &AdjGraph) -> AdjGraph {
        let adj = (0..2 * nodes.num_vertices())
            .map(|v| {
                let node = v / 2;
                let coupled = nodes.neighbors(node).iter().chain([&node]);
                coupled.flat_map(|&u| [2 * u, 2 * u + 1]).filter(|&u| u != v).collect()
            })
            .collect();
        AdjGraph::from_adjacency(adj)
    }

    #[test]
    fn fill_is_within_ten_percent_of_exact_minimum_degree_on_grids() {
        for (nx, ny, diagonals) in [(10, 10, false), (17, 12, false), (15, 15, true), (30, 7, true)]
        {
            let nodes = grid(nx, ny, diagonals);
            for (unknowns, g) in [(1, nodes.clone()), (2, two_per_node(&nodes))] {
                let amd = factor_nnz(&g, &approximate_minimum_degree(&g));
                let exact = factor_nnz(&g, &mindeg::minimum_degree(&g));
                assert!(
                    amd as f64 <= 1.10 * exact as f64,
                    "{nx} × {ny} (diagonals: {diagonals}, {unknowns} per node): AMD {amd} vs \
                     exact {exact}"
                );
            }
        }
    }
}
