//! The textbook BPE trainer, kept as the reference the incremental
//! [`Bpe::train`] must reproduce exactly: every merge recounts every pair of
//! every word and rebuilds the word table.

use std::collections::{BTreeSet, HashMap};

use super::{pre_tokenize, Bpe};

/// Trains on `corpus` with at most `n_merges` merges, the quadratic way.
pub(super) fn train(corpus: &[String], n_merges: usize) -> Bpe {
    // Word frequency table over pre-tokens.
    let mut word_freq: HashMap<Vec<String>, u64> = HashMap::new();
    for text in corpus {
        for word in pre_tokenize(text) {
            let symbols: Vec<String> = word.chars().map(|c| c.to_string()).collect();
            *word_freq.entry(symbols).or_insert(0) += 1;
        }
    }

    let mut merges = Vec::with_capacity(n_merges);
    for _ in 0..n_merges {
        // Count adjacent pairs, weighted by word frequency.
        let mut pair_freq: HashMap<(String, String), u64> = HashMap::new();
        for (symbols, freq) in &word_freq {
            for w in symbols.windows(2) {
                *pair_freq.entry((w[0].clone(), w[1].clone())).or_insert(0) += freq;
            }
        }
        // Deterministic best pair: max count, ties broken lexicographically.
        let Some((best, count)) =
            pair_freq.into_iter().max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        else {
            break;
        };
        if count < 2 {
            break;
        }
        let merged = format!("{}{}", best.0, best.1);
        // Apply the merge to every word.
        let mut new_freq: HashMap<Vec<String>, u64> = HashMap::with_capacity(word_freq.len());
        for (symbols, freq) in word_freq {
            let mut out = Vec::with_capacity(symbols.len());
            let mut i = 0;
            while i < symbols.len() {
                if i + 1 < symbols.len() && symbols[i] == best.0 && symbols[i + 1] == best.1 {
                    out.push(merged.clone());
                    i += 2;
                } else {
                    out.push(symbols[i].clone());
                    i += 1;
                }
            }
            *new_freq.entry(out).or_insert(0) += freq;
        }
        word_freq = new_freq;
        merges.push(best);
    }

    // Vocabulary: all residual symbols plus all single characters.
    let mut all: BTreeSet<String> = BTreeSet::new();
    for symbols in word_freq.keys() {
        for s in symbols {
            for c in s.chars() {
                all.insert(c.to_string());
            }
            all.insert(s.clone());
        }
    }
    for (l, r) in &merges {
        all.insert(format!("{l}{r}"));
    }
    Bpe::from_parts(merges, all)
}

/// Greedy longest match that probes to the end of every word, one `String`
/// and one lookup per character: the unbounded encoder [`Bpe::encode`] must
/// reproduce.
pub(super) fn encode(bpe: &Bpe, text: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for word in pre_tokenize(text) {
        let chars: Vec<char> = word.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let mut best: Option<(usize, u32)> = None;
            let mut probe = String::new();
            for (j, &c) in chars.iter().enumerate().skip(i) {
                probe.push(c);
                if let Some(&id) = bpe.token_to_id.get(&probe) {
                    best = Some((j + 1, id));
                }
            }
            match best {
                Some((next, id)) => {
                    out.push(id);
                    i = next;
                }
                None => i += 1,
            }
        }
    }
    out
}

mod tests {
    use proptest::prelude::*;

    use super::{encode, train};
    use crate::{Bpe, EOF_MARK};

    /// Asserts that `fast` and the reference model `slow` learned the same
    /// merges and vocabulary and encode each of `texts` to the same ids.
    fn assert_same(fast: &Bpe, slow: &Bpe, texts: &[String]) {
        assert_eq!(fast.merges, slow.merges);
        assert_eq!(fast.id_to_token, slow.id_to_token);
        assert_eq!(fast.token_to_id, slow.token_to_id);
        for text in texts {
            assert_eq!(fast.encode(text), encode(slow, text), "{text:?}");
        }
    }

    /// The EOF-marked training corpus `Generator::train` tokenizes.
    fn lm_corpus(seed: u64, programs: usize) -> Vec<String> {
        let corpus = comfort_corpus::training_corpus(seed, programs);
        corpus.iter().map(|p| format!("{p}{EOF_MARK}")).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // A small alphabet makes count ties and overlapping runs (`aaaa`)
        // common; the probe text holds words the corpus may lack.
        #[test]
        fn incremental_trainer_matches_reference(
            corpus in proptest::collection::vec("[ab_ (){};\n]{0,40}", 0..6),
            n_merges in 0usize..64,
        ) {
            let fast = Bpe::train(&corpus, n_merges);
            let slow = train(&corpus, n_merges);
            let mut texts = corpus.clone();
            texts.push("aaaa_bab (b){}\n ba;本a".to_string());
            assert_same(&fast, &slow, &texts);
        }
    }

    #[test]
    fn empty_corpus_matches_reference() {
        for corpus in [vec![], vec![String::new()], vec!["\n".to_string()]] {
            assert_same(&Bpe::train(&corpus, 10), &train(&corpus, 10), &corpus);
        }
    }

    #[test]
    fn seed6_oneshot_tokenizer_matches_reference() {
        let corpus = lm_corpus(6, 80);
        let fast = Bpe::train(&corpus, 200);
        assert_same(&fast, &train(&corpus, 200), &corpus);
        assert_eq!((fast.merge_count(), fast.vocab_size()), (200, 285));
    }

    #[test]
    fn paper_config_tokenizer_matches_reference() {
        let corpus = lm_corpus(6, 260);
        let fast = Bpe::train(&corpus, 400);
        assert_same(&fast, &train(&corpus, 400), &corpus);
    }
}
