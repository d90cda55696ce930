//! The textbook n-gram trainer, kept as the reference the context-trie
//! [`NgramModel`](super::NgramModel) must reproduce exactly: one hash table
//! per context length, keyed by the context itself.

use std::collections::HashMap;

/// Continuations of one context: `(token, count)`, count descending then
/// token ascending.
type Continuations = Vec<(u32, u32)>;

/// Per-length continuation tables: `tables[l]` maps a length-`l` context to
/// its continuations.
pub(super) struct Reference {
    order: usize,
    tables: Vec<HashMap<Vec<u32>, Continuations>>,
}

impl Reference {
    /// Counts every context of length `0..order` at every position.
    pub(super) fn train(sequences: &[Vec<u32>], order: usize) -> Self {
        let mut counting: Vec<HashMap<Vec<u32>, HashMap<u32, u32>>> =
            (0..order).map(|_| HashMap::new()).collect();
        for seq in sequences {
            for i in 0..seq.len() {
                let next = seq[i];
                for l in 0..order.min(i + 1) {
                    let ctx = seq[i - l..i].to_vec();
                    *counting[l].entry(ctx).or_default().entry(next).or_insert(0) += 1;
                }
            }
        }
        let tables = counting
            .into_iter()
            .map(|t| {
                t.into_iter()
                    .map(|(ctx, conts)| {
                        let mut v: Continuations = conts.into_iter().collect();
                        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        (ctx, v)
                    })
                    .collect()
            })
            .collect();
        Reference { order, tables }
    }

    /// Continuations of the longest stored suffix of `context`.
    pub(super) fn predict(&self, context: &[u32]) -> &[(u32, u32)] {
        let max_l = (self.order - 1).min(context.len());
        for l in (0..=max_l).rev() {
            let ctx = &context[context.len() - l..];
            if let Some(conts) = self.tables[l].get(ctx) {
                if !conts.is_empty() {
                    return conts;
                }
            }
        }
        &[]
    }

    /// Number of distinct contexts stored (all lengths).
    pub(super) fn context_count(&self) -> usize {
        self.tables.iter().map(HashMap::len).sum()
    }
}

mod tests {
    use proptest::prelude::*;

    use super::Reference;
    use crate::{Bpe, NgramModel, EOF_MARK};

    /// Asserts that `fast` and `slow` store as many contexts and predict the
    /// same continuations for every prefix of every sequence and for `probes`.
    fn assert_same(fast: &NgramModel, slow: &Reference, sequences: &[Vec<u32>], probes: &[u32]) {
        assert_eq!(fast.context_count(), slow.context_count());
        for seq in sequences {
            for k in 0..=seq.len() {
                assert_eq!(fast.predict(&seq[..k]), slow.predict(&seq[..k]), "{:?}", &seq[..k]);
            }
        }
        assert_eq!(fast.predict(probes), slow.predict(probes), "{probes:?}");
    }

    /// The encoded corpus and n-gram pair `Generator::train` builds.
    fn lm_models(seed: u64, programs: usize, merges: usize, order: usize) -> [usize; 2] {
        let corpus = comfort_corpus::training_corpus(seed, programs);
        let with_eof: Vec<String> = corpus.iter().map(|p| format!("{p}{EOF_MARK}")).collect();
        let bpe = Bpe::train(&with_eof, merges);
        let sequences: Vec<Vec<u32>> = with_eof.iter().map(|p| bpe.encode(p)).collect();
        let fast = NgramModel::train(&sequences, order);
        let unseen = vec![u32::MAX; order];
        assert_same(&fast, &Reference::train(&sequences, order), &sequences, &unseen);
        [bpe.vocab_size(), fast.context_count()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Four tokens in training and a fifth only in the probe: repeated
        // contexts, count ties and unseen suffixes are all common.
        #[test]
        fn trie_trainer_matches_reference(
            sequences in proptest::collection::vec(proptest::collection::vec(0u32..4, 0..30), 0..5),
            order in 1usize..6,
            probe in proptest::collection::vec(0u32..5, 0..8),
        ) {
            let fast = NgramModel::train(&sequences, order);
            assert_same(&fast, &Reference::train(&sequences, order), &sequences, &probe);
        }
    }

    #[test]
    fn empty_training_sets_match_reference() {
        for sequences in [vec![], vec![vec![]], vec![vec![], vec![3]]] {
            for order in 1..4 {
                let fast = NgramModel::train(&sequences, order);
                assert_same(&fast, &Reference::train(&sequences, order), &sequences, &[3, 1]);
            }
        }
    }

    #[test]
    fn seed6_oneshot_model_matches_reference() {
        assert_eq!(lm_models(6, 80, 200, 8), [285, 46_462]);
    }

    #[test]
    fn paper_config_model_matches_reference() {
        lm_models(6, 260, 400, 12);
    }
}
