//! Robustness: the CADEL front end must never panic, whatever the input —
//! users type sentences, and a typo must surface as a positioned
//! [`ParseError`](cadel_lang::ParseError), not a crash.
//!
//! Inputs come from a seeded [`Rng`], so a failure names the exact text
//! that panicked and reproduces on every run.

use cadel_lang::{parse_command, Dictionary, Lexicon};
use cadel_types::Rng;

const CASES: usize = 512;

/// Characters the soup draws from: ASCII letters, digits, punctuation the
/// grammar knows, whitespace, quotes, and multi-byte code points.
const SOUP: &[char] = &[
    'a', 'e', 'i', 'o', 'n', 't', 'h', 'r', 's', 'z', 'A', 'I', 'T', '0', '1', '2', '8', '9', ' ',
    ' ', '\t', '\n', ',', '.', '(', ')', '%', '-', ':', '\'', '"', '°', 'é', 'ß', '日', '本', '🙂',
    '\u{0}', '\u{200b}',
];

/// The grammar's own vocabulary — the adversarial case, since every token
/// is meaningful somewhere.
const KEYWORDS: &str = "if when then and or turn on off the a is higher than at in for with of \
     setting until after every percent degrees 28 60 pm night evening someone nobody returns \
     home dark unlocked let us call that condition configuration , . ( )";

fn parse(input: &str) {
    let lexicon = Lexicon::english();
    let dictionary = Dictionary::new();
    // Ok or Err are both fine; only a panic fails the test.
    let _ = parse_command(input, &lexicon, &dictionary);
}

/// Arbitrary character soup up to 200 characters: parse returns Ok or
/// Err, never panics.
#[test]
fn parser_never_panics_on_arbitrary_input() {
    let mut rng = Rng::new(0xF022);
    for _ in 0..CASES {
        let len = rng.below(201);
        let input: String = (0..len).map(|_| *rng.pick(SOUP)).collect();
        parse(&input);
    }
}

/// Word salad of up to 24 grammar keywords.
#[test]
fn parser_never_panics_on_keyword_salad() {
    let keywords: Vec<&str> = KEYWORDS.split_whitespace().collect();
    let mut rng = Rng::new(0x5A1AD);
    for _ in 0..CASES {
        let len = rng.below(25);
        let words: Vec<&str> = (0..len).map(|_| *rng.pick(&keywords)).collect();
        parse(&words.join(" "));
    }
}

/// Every prefix of valid sentences parses or errors cleanly (the
/// interactive-editing case).
#[test]
fn parser_never_panics_on_truncated_sentences() {
    let sentences = [
        "If humidity is higher than 80 percent and temperature is higher than 28 degrees, \
         turn on the air conditioner with 25 degrees of temperature setting.",
        "When someone returns home after 6 pm and it is dark, turn on the light until 11 pm.",
        "If the door is unlocked for 1 hour, turn on the alarm.",
    ];
    for sentence in sentences {
        for end in (0..=sentence.len()).filter(|&i| sentence.is_char_boundary(i)) {
            parse(&sentence[..end]);
        }
    }
}
