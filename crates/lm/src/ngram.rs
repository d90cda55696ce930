//! Back-off n-gram language model over BPE token ids.
//!
//! This is the deep-model stand-in (see DESIGN.md §1): the **context order**
//! plays the role of model capacity. COMFORT's GPT-2 is simulated with a long
//! context (order 12 — long-range dependence, balanced brackets), the
//! DeepSmith/Montage LSTM with a short one (order 2–3), which is precisely
//! the contrast the paper evaluates in Figure 9.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rand::Rng;

#[cfg(test)]
mod reference;

/// A trained back-off n-gram model.
///
/// Every context seen in training is a node of a trie extended leftward:
/// node 0 is the empty context, and a node's parent (`suffix`) is its
/// context without the oldest token. Each node also keeps its forward
/// edges, `ctx(n) · t`, so reading one more token moves to the longest
/// stored suffix of the longer context in amortized O(1) map steps — the
/// suffix-link walk of an Aho–Corasick automaton.
#[derive(Debug, Clone)]
pub struct NgramModel {
    order: usize,
    /// `edge(n, t)` → the node of `ctx(n) · t`.
    next: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// The node of `ctx(n)` without its oldest token (the root's is unused).
    suffix: Vec<u32>,
    /// Node `n`'s continuations are `conts[span[n]..span[n + 1]]`.
    span: Vec<u32>,
    /// `(token, count)` runs per node, count descending then token ascending.
    conts: Vec<(u32, u32)>,
}

/// The empty context.
const ROOT: u32 = 0;

/// A forward-edge key.
fn edge(node: u32, token: u32) -> u64 {
    (u64::from(node) << 32) | u64::from(token)
}

/// Folded-multiply hash of one `u64` edge key. Every automaton step is one
/// lookup; with SipHash, training the paper-config generator took about a
/// third longer (2-CPU x86 host).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl NgramModel {
    /// Trains on token sequences with contexts up to `order - 1` tokens.
    ///
    /// Each position takes one forward step from the previous position's
    /// longest context, then records one `(node, next)` pair for that node
    /// and each of its suffixes; one sort run-length counts them all, so a
    /// position costs O(order) with no allocation of its own. The tables
    /// equal those of counting each context in its own hash table (the
    /// equivalence proptests in `ngram/reference.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn train(sequences: &[Vec<u32>], order: usize) -> Self {
        assert!(order >= 1, "order must be at least 1");
        let mut model = NgramModel {
            order,
            next: HashMap::default(),
            suffix: vec![ROOT],
            span: vec![0],
            conts: Vec::new(),
        };
        let mut seen: Vec<u64> = Vec::new();
        for seq in sequences {
            let mut at = ROOT;
            for (i, &next) in seq.iter().enumerate() {
                // `at` holds the min(i, order - 1) tokens before position i;
                // from `order` on, the previous one drops its oldest to grow.
                if i > 0 && order > 1 {
                    let from = if i >= order { model.suffix[at as usize] } else { at };
                    at = model.insert(from, seq[i - 1]);
                }
                let mut n = at;
                seen.push(edge(n, next));
                while n != ROOT {
                    n = model.suffix[n as usize];
                    seen.push(edge(n, next));
                }
            }
        }
        seen.sort_unstable();

        // Every node is counted at the position that created it, so the
        // sorted pairs hold each node in turn; run-length them into its slice.
        let mut i = 0;
        while i < seen.len() {
            let node = seen[i] >> 32;
            let start = model.conts.len();
            while i < seen.len() && seen[i] >> 32 == node {
                let j = i + seen[i..].iter().take_while(|&&k| k == seen[i]).count();
                model.conts.push((seen[i] as u32, (j - i) as u32));
                i = j;
            }
            model.conts[start..].sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            model.span.push(model.conts.len() as u32);
        }
        model
    }

    /// The node of `ctx(from) · token`, created with its suffixes if new.
    fn insert(&mut self, from: u32, token: u32) -> u32 {
        if let Some(&n) = self.next.get(&edge(from, token)) {
            return n;
        }
        let suffix =
            if from == ROOT { ROOT } else { self.insert(self.suffix[from as usize], token) };
        let n = self.suffix.len() as u32;
        self.suffix.push(suffix);
        self.next.insert(edge(from, token), n);
        n
    }

    /// The node of the longest stored suffix of `ctx(at) · token`, with at
    /// most `order - 1` tokens: full-length nodes have no forward edges.
    pub(crate) fn advance(&self, mut at: u32, token: u32) -> u32 {
        loop {
            if let Some(&n) = self.next.get(&edge(at, token)) {
                return n;
            }
            if at == ROOT {
                return ROOT;
            }
            at = self.suffix[at as usize];
        }
    }

    /// The node of the longest stored suffix of `context`.
    pub(crate) fn locate(&self, context: &[u32]) -> u32 {
        let window = &context[context.len().saturating_sub(self.order - 1)..];
        window.iter().fold(ROOT, |at, &t| self.advance(at, t))
    }

    /// The maximum context length + 1.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Continuations for `context`, backing off to shorter contexts until one
    /// has data. Returns the empty slice only for an empty training set.
    pub fn predict(&self, context: &[u32]) -> &[(u32, u32)] {
        self.continuations(self.locate(context))
    }

    /// Node `at`'s continuations (none for an empty training set).
    fn continuations(&self, at: u32) -> &[(u32, u32)] {
        let at = at as usize;
        self.span.get(at + 1).map_or(&[], |&end| &self.conts[self.span[at] as usize..end as usize])
    }

    /// Top-k sampling (§3.2, k = 10 in the paper): restrict to the `k`
    /// highest-count continuations and sample proportionally to count.
    pub fn sample_top_k<R: Rng>(&self, rng: &mut R, context: &[u32], k: usize) -> Option<u32> {
        self.sample_at(rng, self.locate(context), k)
    }

    /// [`sample_top_k`](Self::sample_top_k) from node `at`.
    pub(crate) fn sample_at<R: Rng>(&self, rng: &mut R, at: u32, k: usize) -> Option<u32> {
        let conts = self.continuations(at);
        if conts.is_empty() {
            return None;
        }
        let top = &conts[..k.min(conts.len())];
        let total: u64 = top.iter().map(|(_, c)| *c as u64).sum();
        let mut draw = rng.random_range(0..total);
        for (tok, c) in top {
            if draw < *c as u64 {
                return Some(*tok);
            }
            draw -= *c as u64;
        }
        Some(top[top.len() - 1].0)
    }

    /// Number of distinct contexts stored (all orders).
    pub fn context_count(&self) -> usize {
        self.span.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> NgramModel {
        // Sequences: 1 2 3 4, 1 2 3 5, 9 2 7.
        NgramModel::train(&[vec![1, 2, 3, 4], vec![1, 2, 3, 5], vec![9, 2, 7]], 3)
    }

    #[test]
    fn highest_order_wins() {
        let m = model();
        // Context [2, 3]: continuations {4, 5}.
        let conts = m.predict(&[2, 3]);
        let toks: Vec<u32> = conts.iter().map(|(t, _)| *t).collect();
        assert_eq!(toks.len(), 2);
        assert!(toks.contains(&4) && toks.contains(&5));
    }

    #[test]
    fn backoff_on_unseen_context() {
        let m = model();
        // Context [42, 2] unseen at order 2; backs off to [2] → {3, 7}.
        let conts = m.predict(&[42, 2]);
        let toks: Vec<u32> = conts.iter().map(|(t, _)| *t).collect();
        assert!(toks.contains(&3));
        assert!(toks.contains(&7));
    }

    #[test]
    fn unigram_fallback() {
        let m = model();
        let conts = m.predict(&[12345]);
        assert!(!conts.is_empty());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = model();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            assert_eq!(m.sample_top_k(&mut r1, &[1], 10), m.sample_top_k(&mut r2, &[1], 10));
        }
    }

    #[test]
    fn top_k_restricts_candidates() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(3);
        // With k = 1, sampling always picks the single most frequent token.
        let first = m.predict(&[2]).first().map(|(t, _)| *t);
        for _ in 0..10 {
            assert_eq!(m.sample_top_k(&mut rng, &[2], 1), first);
        }
    }

    #[test]
    fn empty_model_returns_none() {
        let m = NgramModel::train(&[], 3);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.sample_top_k(&mut rng, &[1], 10), None);
        assert_eq!(m.context_count(), 0);
    }
}
