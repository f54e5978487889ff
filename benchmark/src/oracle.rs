//! The recall oracle: exact top-`k` by brute force, written here rather
//! than borrowed from the program under test. It reads each database vector
//! once per block of queries and keeps independent partial sums, which makes
//! it several times faster than a query-at-a-time scan; ground truth is the
//! harness's own cost in every run, so that matters.

/// Queries scored against one database vector while it is in registers.
const QUERY_BLOCK: usize = 8;
/// Independent partial sums per distance (lets the compiler vectorise).
const LANES: usize = 8;

fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let (a_blocks, a_tail) = a.split_at(a.len() - a.len() % LANES);
    let (b_blocks, b_tail) = b.split_at(a_blocks.len());
    for (x, y) in a_blocks
        .chunks_exact(LANES)
        .zip(b_blocks.chunks_exact(LANES))
    {
        for lane in 0..LANES {
            let d = x[lane] - y[lane];
            acc[lane] += d * d;
        }
    }
    let tail: f32 = a_tail
        .iter()
        .zip(b_tail)
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    acc.iter().sum::<f32>() + tail
}

/// The `k` best (distance, id) pairs seen so far, ascending.
struct Best {
    k: usize,
    hits: Vec<(f32, u32)>,
}

impl Best {
    fn offer(&mut self, dist: f32, id: u32) {
        if self.hits.len() == self.k && dist >= self.hits[self.k - 1].0 {
            return;
        }
        let at = self.hits.partition_point(|&(d, _)| d <= dist);
        self.hits.insert(at, (dist, id));
        self.hits.truncate(self.k);
    }
}

fn neighbours_of_block(base: &[f32], queries: &[f32], dim: usize, k: usize) -> Vec<u32> {
    let mut best: Vec<Best> = queries
        .chunks_exact(dim)
        .map(|_| Best {
            k,
            hits: Vec::with_capacity(k + 1),
        })
        .collect();
    for (id, vector) in base.chunks_exact(dim).enumerate() {
        for (query, best) in queries.chunks_exact(dim).zip(&mut best) {
            best.offer(l2_sq(query, vector), id as u32);
        }
    }
    best.iter()
        .flat_map(|b| b.hits.iter().map(|&(_, id)| id))
        .collect()
}

/// Ids of the `k` nearest database vectors of every query (squared L2, ties
/// to the smaller id), flattened `queries × k`. Needs `k <= base.len() / dim`.
pub fn exact_neighbours(base: &[f32], queries: &[f32], dim: usize, k: usize) -> Vec<u32> {
    assert!(k <= base.len() / dim, "fewer database vectors than k");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let blocks: Vec<&[f32]> = queries.chunks(QUERY_BLOCK * dim).collect();
    let per_thread = blocks.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = blocks
            .chunks(per_thread)
            .map(|mine| {
                scope.spawn(move || {
                    mine.iter()
                        .flat_map(|block| neighbours_of_block(base, block, dim, k))
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn blocked_search_matches_a_naive_sort() {
        let (dim, n, nq, k) = (12, 300, 19, 10);
        let mut rng = Rng::stream(11, "oracle-test");
        let mut random = |len: usize| (0..len).map(|_| rng.next_f64() as f32).collect::<Vec<_>>();
        let (base, queries) = (random(n * dim), random(nq * dim));
        let got = exact_neighbours(&base, &queries, dim, k);
        assert_eq!(got.len(), nq * k);
        for (q, query) in queries.chunks_exact(dim).enumerate() {
            let mut all: Vec<(f32, u32)> = base
                .chunks_exact(dim)
                .enumerate()
                .map(|(id, v)| (l2_sq(query, v), id as u32))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<u32> = all[..k].iter().map(|&(_, id)| id).collect();
            assert_eq!(&got[q * k..(q + 1) * k], want.as_slice(), "query {q}");
        }
    }
}
