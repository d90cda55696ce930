//! Byte-Pair-Encoding tokenizer (§3.2).
//!
//! Implements the same scheme the paper describes: count word frequencies,
//! break words into subword chunks by iteratively merging the most frequent
//! adjacent pair, and map each subword to an integer in a vocabulary table.
//! Common keywords (`var`, `for`, `if`) end up as whole tokens while rare
//! identifiers decompose into a few characters — allowing an unbounded
//! identifier space over a finite vocabulary.
//!
//! The trainer is incremental: symbols are interned, each distinct word is
//! kept once with its frequency, and a merge recounts only the words that
//! contain the merged pair. It learns exactly the merges and vocabulary of
//! the textbook trainer that recounts every pair per merge (the equivalence
//! proptests in `bpe/reference.rs` check this).

use std::collections::{BTreeSet, HashMap};

#[cfg(test)]
mod reference;

/// Marker prefixed to space-separated word starts (the `Ġ` of GPT-2's BPE).
const SPACE_MARK: char = '\u{2581}'; // ▁

/// A trained BPE tokenizer.
#[derive(Debug, Clone)]
pub struct Bpe {
    /// Learned merges in priority order: `(left, right) -> merged`.
    merges: Vec<(String, String)>,
    token_to_id: HashMap<String, u32>,
    id_to_token: Vec<String>,
    /// Char length of the longest vocabulary token: no longer probe can match.
    max_token_chars: usize,
}

/// Interned symbol strings: a symbol's id is its index in `strings`, and
/// equal strings get one id however they were merged.
#[derive(Default)]
struct Symbols {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Symbols {
    fn intern(&mut self, s: String) -> u32 {
        if let Some(&id) = self.ids.get(&s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(s.clone(), id);
        self.strings.push(s);
        id
    }

    /// The pair's `(left, right)` strings, for the lexicographic tie-break.
    fn text(&self, (l, r): (u32, u32)) -> (&str, &str) {
        (&self.strings[l as usize], &self.strings[r as usize])
    }
}

/// A distinct pre-token word: its current symbols and its corpus frequency.
struct Word {
    symbols: Vec<u32>,
    freq: u64,
}

impl Bpe {
    /// Trains on `corpus` with at most `n_merges` merge operations.
    ///
    /// Each merge takes the pair with the highest window count (`aaa` holds
    /// `(a, a)` twice), ties going to the lexicographically smallest
    /// `(left, right)`, and stops once no pair occurs twice. Only the words
    /// holding that pair are rewritten and recounted, so a merge costs the
    /// length of those words plus one scan of the live pair counts.
    pub fn train(corpus: &[String], n_merges: usize) -> Self {
        let mut symbols = Symbols::default();
        let mut word_index: HashMap<String, usize> = HashMap::new();
        let mut words: Vec<Word> = Vec::new();
        for text in corpus {
            for word in pre_tokenize(text) {
                if let Some(&w) = word_index.get(&word) {
                    words[w].freq += 1;
                    continue;
                }
                let ids = word.chars().map(|c| symbols.intern(c.to_string())).collect();
                word_index.insert(word, words.len());
                words.push(Word { symbols: ids, freq: 1 });
            }
        }
        drop(word_index);

        // Window counts weighted by word frequency, and the words each pair
        // was ever seen in (stale and repeated entries are skipped on use).
        let mut pair_count: HashMap<(u32, u32), u64> = HashMap::new();
        let mut pair_words: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        for (w, word) in words.iter().enumerate() {
            for win in word.symbols.windows(2) {
                *pair_count.entry((win[0], win[1])).or_insert(0) += word.freq;
                pair_words.entry((win[0], win[1])).or_default().push(w as u32);
            }
        }

        let mut merges = Vec::with_capacity(n_merges);
        for _ in 0..n_merges {
            // The tie-break is a total order on distinct pairs, so the map's
            // iteration order cannot change the pick.
            let Some((&best, &count)) = pair_count.iter().max_by(|a, b| {
                a.1.cmp(b.1).then_with(|| symbols.text(*b.0).cmp(&symbols.text(*a.0)))
            }) else {
                break;
            };
            if count < 2 {
                break;
            }
            let (left, right) = symbols.text(best);
            let (left, right) = (left.to_string(), right.to_string());
            let merged = symbols.intern(format!("{left}{right}"));
            let mut touched = pair_words.remove(&best).unwrap_or_default();
            touched.sort_unstable();
            touched.dedup();
            for w in touched {
                let word = &mut words[w as usize];
                if !word.symbols.windows(2).any(|win| (win[0], win[1]) == best) {
                    continue;
                }
                for win in word.symbols.windows(2) {
                    let pair = (win[0], win[1]);
                    let c = pair_count.get_mut(&pair).expect("every window is counted");
                    *c -= word.freq;
                    if *c == 0 {
                        pair_count.remove(&pair);
                    }
                }
                word.symbols = merge_pair(&word.symbols, best, merged);
                for win in word.symbols.windows(2) {
                    let pair = (win[0], win[1]);
                    *pair_count.entry(pair).or_insert(0) += word.freq;
                    // Windows without the new symbol were already indexed.
                    if win.contains(&merged) {
                        pair_words.entry(pair).or_default().push(w);
                    }
                }
            }
            merges.push((left, right));
        }

        // Vocabulary: all residual symbols plus all single characters.
        // Collected into an ordered set first so token ids are deterministic
        // (HashMap iteration order would leak into generation otherwise).
        let mut all: BTreeSet<String> = BTreeSet::new();
        for word in &words {
            for &id in &word.symbols {
                let s = &symbols.strings[id as usize];
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

    /// Numbers the vocabulary in `BTreeSet` order.
    fn from_parts(merges: Vec<(String, String)>, vocab: BTreeSet<String>) -> Self {
        let mut token_to_id = HashMap::with_capacity(vocab.len());
        let mut id_to_token = Vec::with_capacity(vocab.len());
        let mut max_token_chars = 0;
        for tok in vocab {
            max_token_chars = max_token_chars.max(tok.chars().count());
            token_to_id.insert(tok.clone(), id_to_token.len() as u32);
            id_to_token.push(tok);
        }
        Bpe { merges, token_to_id, id_to_token, max_token_chars }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.id_to_token.len()
    }

    /// Number of merge operations learned during training.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Encodes `text` to token ids.
    ///
    /// Segmentation is greedy longest-match against the learned vocabulary —
    /// equivalent in coverage to replaying the merge sequence, but linear in
    /// practice (merge replay is O(merges × word) per word). A probe never
    /// reaches past the longest token, so a long word costs O(length × that
    /// token length) lookups.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        let mut bounds = Vec::new();
        for word in pre_tokenize(text) {
            bounds.clear();
            bounds.extend(word.char_indices().map(|(b, _)| b));
            bounds.push(word.len());
            let chars = bounds.len() - 1;
            let mut i = 0;
            while i < chars {
                let longest = (i + 1..=chars.min(i + self.max_token_chars)).rev().find_map(|j| {
                    self.token_to_id.get(&word[bounds[i]..bounds[j]]).map(|&id| (j, id))
                });
                match longest {
                    Some((next, id)) => {
                        out.push(id);
                        i = next;
                    }
                    None => i += 1, // unknown character: skip
                }
            }
        }
        out
    }

    /// Decodes ids back to text.
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for &id in ids {
            if let Some(tok) = self.id_to_token.get(id as usize) {
                out.push_str(tok);
            }
        }
        out.replace(SPACE_MARK, " ")
    }

    /// Decodes a single token id.
    pub fn token_text(&self, id: u32) -> &str {
        self.id_to_token.get(id as usize).map(String::as_str).unwrap_or("")
    }
}

/// `symbols` with every occurrence of `pair` replaced by `merged`, scanning
/// left to right without overlap (`a a a` under `(a, a)` is `aa a`).
fn merge_pair(symbols: &[u32], pair: (u32, u32), merged: u32) -> Vec<u32> {
    let mut out = Vec::with_capacity(symbols.len());
    let mut i = 0;
    while i < symbols.len() {
        if i + 1 < symbols.len() && (symbols[i], symbols[i + 1]) == pair {
            out.push(merged);
            i += 2;
        } else {
            out.push(symbols[i]);
            i += 1;
        }
    }
    out
}

/// Splits source text into pre-tokens: identifier/number runs, single
/// punctuation characters, and explicit newlines. A leading space folds into
/// the following token as the `▁` marker.
fn pre_tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    let mut pending_space = false;
    while let Some(&c) = chars.peek() {
        if c == '\n' {
            chars.next();
            out.push("\n".to_string());
            pending_space = false;
            continue;
        }
        if c == ' ' || c == '\t' {
            chars.next();
            pending_space = true;
            continue;
        }
        let mut word = String::new();
        if pending_space {
            word.push(SPACE_MARK);
            pending_space = false;
        }
        if c.is_alphanumeric() || c == '_' || c == '$' {
            while let Some(&c2) = chars.peek() {
                if c2.is_alphanumeric()
                    || c2 == '_'
                    || c2 == '$'
                    || c2 == '.' && word.chars().last().is_some_and(|p| p.is_ascii_digit())
                {
                    word.push(c2);
                    chars.next();
                } else {
                    break;
                }
            }
        } else {
            word.push(c);
            chars.next();
        }
        out.push(word);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "var x = foo(1);\nvar y = foo(2);\n".to_string(),
            "var z = foo(3);\nfunction foo(n) { return n; }\n".to_string(),
        ]
    }

    #[test]
    fn roundtrip_preserves_text() {
        let bpe = Bpe::train(&corpus(), 50);
        let text = "var x = foo(1);";
        assert_eq!(bpe.decode(&bpe.encode(text)), text);
    }

    #[test]
    fn newlines_survive() {
        let bpe = Bpe::train(&corpus(), 20);
        let text = "var x = 1;\nvar y = 2;";
        assert_eq!(bpe.decode(&bpe.encode(text)), text);
    }

    #[test]
    fn common_words_become_single_tokens() {
        let bpe = Bpe::train(&corpus(), 200);
        // `var` appears often; after enough merges it is one token (with its
        // space/newline context variants).
        let ids = bpe.encode("var");
        assert_eq!(ids.len(), 1, "`var` should be a single token");
    }

    #[test]
    fn unknown_chars_are_skipped_not_panicked() {
        let bpe = Bpe::train(&corpus(), 10);
        let ids = bpe.encode("本");
        assert!(ids.is_empty());
    }

    #[test]
    fn long_identifier_roundtrips() {
        let bpe = Bpe::train(&corpus(), 50);
        let ident: String = "fooreturnvarxyz".chars().cycle().take(10_000).collect();
        let ids = bpe.encode(&ident);
        assert!(ids.len() < ident.len(), "merged tokens cover several chars");
        assert_eq!(bpe.decode(&ids), ident);
    }

    #[test]
    fn vocab_is_finite_and_bounded() {
        let bpe = Bpe::train(&corpus(), 30);
        assert!(bpe.vocab_size() > 10);
        assert!(bpe.vocab_size() < 200);
    }
}
