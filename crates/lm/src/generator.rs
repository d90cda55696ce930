//! The test-program generator: seed header → token-by-token sampling with
//! the paper's termination rules (§3.2).
//!
//! A generation run starts from a randomly chosen seed header (e.g.
//! `var a = function(assert) {`), repeatedly asks the model for the next
//! token using top-k sampling, and stops when
//!
//! * the braces balance (`{`/`}` matched — the function is complete), or
//! * the dedicated `<EOF>` symbol is produced, or
//! * the token budget (5,000 in the paper) is exhausted — such runaway
//!   generations are usually the syntactically invalid ones.

use rand::Rng;

use crate::bpe::Bpe;
use crate::ngram::NgramModel;

/// End-of-program sentinel appended to every training sequence.
pub const EOF_MARK: &str = "\u{241F}"; // ␟ symbol for <EOF>

/// Configuration of a [`Generator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Context order of the n-gram model (model-capacity knob: 12 ≈ GPT-2,
    /// 2–3 ≈ the DeepSmith LSTM).
    pub order: usize,
    /// BPE merge operations to learn.
    pub bpe_merges: usize,
    /// Top-k sampling width (the paper sets k = 10).
    pub top_k: usize,
    /// Maximum tokens per generation (paper: 5,000 words).
    pub max_tokens: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig { order: 12, bpe_merges: 600, top_k: 10, max_tokens: 5000 }
    }
}

/// A trained program generator (tokenizer + model + header pool).
#[derive(Debug, Clone)]
pub struct Generator {
    bpe: Bpe,
    model: NgramModel,
    headers: Vec<String>,
    config: GeneratorConfig,
}

impl Generator {
    /// Trains tokenizer and model on `corpus` and harvests seed headers.
    pub fn train(corpus: &[String], config: GeneratorConfig) -> Self {
        let with_eof: Vec<String> = corpus.iter().map(|p| format!("{p}{EOF_MARK}")).collect();
        let bpe = Bpe::train(&with_eof, config.bpe_merges);
        let sequences: Vec<Vec<u32>> = with_eof.iter().map(|p| bpe.encode(p)).collect();
        let model = NgramModel::train(&sequences, config.order);
        let mut headers = comfort_corpus::harvest_headers(corpus);
        if headers.is_empty() {
            headers.push("var a = function(n) {".to_string());
        }
        Generator { bpe, model, headers, config }
    }

    /// The tokenizer (exposed for the Montage-style baseline).
    pub fn bpe(&self) -> &Bpe {
        &self.bpe
    }

    /// The header pool size.
    pub fn header_count(&self) -> usize {
        self.headers.len()
    }

    /// Generates one test program.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> String {
        let header = &self.headers[rng.random_range(0..self.headers.len())];
        self.generate_from(rng, header)
    }

    /// Generates starting from an explicit seed `header`.
    pub fn generate_from<R: Rng>(&self, rng: &mut R, header: &str) -> String {
        let ids = self.bpe.encode(header);
        let mut text = self.bpe.decode(&ids);
        let mut depth = brace_delta(&text);
        let needs_semi = header.contains('=');
        // The model's node for the tokens so far, advanced one token at a time.
        let mut at = self.model.locate(&ids);

        for _ in 0..self.config.max_tokens {
            let Some(next) = self.model.sample_at(rng, at, self.config.top_k) else {
                break;
            };
            let tok_text = self.bpe.token_text(next).replace('\u{2581}', " ");
            if tok_text.contains(EOF_MARK) {
                break;
            }
            at = self.model.advance(at, next);
            text.push_str(&tok_text);
            depth += brace_delta(&tok_text);
            if depth <= 0 {
                break;
            }
        }
        if needs_semi && text.trim_end().ends_with('}') {
            text.push(';');
        }
        text.push('\n');
        text
    }
}

/// Net `{`/`}` depth change contributed by `text`, ignoring braces inside
/// string literals well enough for generated code (quotes toggle an
/// in-string flag).
fn brace_delta(text: &str) -> i32 {
    let mut depth = 0;
    let mut in_str: Option<char> = None;
    let mut prev_escape = false;
    for c in text.chars() {
        match in_str {
            Some(q) => {
                if prev_escape {
                    prev_escape = false;
                } else if c == '\\' {
                    prev_escape = true;
                } else if c == q {
                    in_str = None;
                }
            }
            None => match c {
                '"' | '\'' => in_str = Some(c),
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            },
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained(order: usize) -> Generator {
        let corpus = comfort_corpus::training_corpus(11, 200);
        Generator::train(
            &corpus,
            GeneratorConfig { order, bpe_merges: 400, max_tokens: 2000, ..Default::default() },
        )
    }

    #[test]
    fn generates_deterministically_per_seed() {
        let g = trained(8);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(g.generate(&mut r1), g.generate(&mut r2));
    }

    #[test]
    fn long_context_mostly_produces_valid_js() {
        let g = trained(10);
        let mut rng = StdRng::seed_from_u64(1);
        let mut ok = 0;
        const N: usize = 60;
        for _ in 0..N {
            if comfort_syntax::lint(&g.generate(&mut rng)).is_ok() {
                ok += 1;
            }
        }
        // The GPT-2 proxy must clear a DeepSmith-level bar by a wide margin
        // (paper: 80% vs <31% syntactic validity; the contrast itself is
        // asserted in `short_context_is_worse_than_long_context`).
        assert!(ok * 100 >= N * 55, "only {ok}/{N} valid");
    }

    #[test]
    fn short_context_is_worse_than_long_context() {
        let long = trained(10);
        let short = trained(2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut long_ok = 0;
        let mut short_ok = 0;
        const N: usize = 50;
        for _ in 0..N {
            if comfort_syntax::lint(&long.generate(&mut rng)).is_ok() {
                long_ok += 1;
            }
            if comfort_syntax::lint(&short.generate(&mut rng)).is_ok() {
                short_ok += 1;
            }
        }
        assert!(
            long_ok > short_ok,
            "long-context validity ({long_ok}) must beat short-context ({short_ok})"
        );
    }

    #[test]
    fn generation_is_bounded() {
        let g = trained(3);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let p = g.generate(&mut rng);
            assert!(p.len() < 100_000);
        }
    }

    #[test]
    fn explicit_header_is_respected() {
        let g = trained(8);
        let mut rng = StdRng::seed_from_u64(4);
        let p = g.generate_from(&mut rng, "var a = function(assert) {");
        assert!(p.starts_with("var a = function(assert) {"), "{p}");
    }

    #[test]
    fn brace_delta_ignores_string_contents() {
        assert_eq!(brace_delta("{ \"}}}\" }"), 0);
        assert_eq!(brace_delta("{ '{{{' }"), 0);
        assert_eq!(brace_delta("function f() {"), 1);
        assert_eq!(brace_delta("}"), -1);
    }
}
