//! **A2 (ablation)** — rule-object compilation vs interpretation.
//!
//! The paper stresses that CADEL descriptions are compiled once into rule
//! objects instead of being re-interpreted at runtime (§4.1/§4.3). This
//! ablation measures the front-end costs that compilation pays once:
//! tokenization, parsing, and full compilation to rule objects (and, with
//! the IR pipeline, all the way to [`cadel::ir::RuleProgram`]s) — versus
//! the per-evaluation cost of an already-compiled rule (what the engine
//! pays on every event).

use cadel::ir::Interner;
use cadel_bench::cadel_sentences;
use cadel_bench::timing::{run, section};
use cadel_engine::{ContextStore, Evaluator, HeldTracker};
use cadel_lang::ast::Command;
use cadel_lang::{parse_command, Compiler, Dictionary, Lexicon, MapResolver};
use cadel_rule::RuleDb;
use cadel_types::{Date, DeviceId, PersonId, Quantity, RuleId, SensorKey, SimTime, Unit, Value};
use std::hint::black_box;

fn resolver() -> MapResolver {
    let mut r = MapResolver::new();
    r.add_person("tom")
        .add_person("alan")
        .add_place("living room")
        .add_place("hall")
        .add_device("air conditioner", "aircon-lr", None)
        .add_device("tv", "tv-lr", None)
        .add_device("stereo", "stereo-lr", None)
        .add_device("video recorder", "vcr-lr", None)
        .add_device("fan", "fan-1", None)
        .add_device("alarm", "alarm-1", None)
        .add_device("entrance door", "door-1", None)
        .add_device("light", "light-hall", Some("hall"))
        .add_sensor(
            "temperature",
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            None,
            Unit::Celsius,
        )
        .add_sensor(
            "humidity",
            SensorKey::new(DeviceId::new("hygro-lr"), "humidity"),
            None,
            Unit::Percent,
        )
        .add_ambient(
            "hall",
            "illuminance",
            SensorKey::new(DeviceId::new("lux-hall"), "illuminance"),
            Unit::Lux,
        );
    r
}

fn main() {
    let lexicon = Lexicon::english();
    let dictionary = Dictionary::new();
    let resolver = resolver();
    let compiler = Compiler::new(&resolver, &dictionary, PersonId::new("tom"));

    section("a2_front_end (256-sentence corpus)");
    let corpus = cadel_sentences(256);
    let bytes: usize = corpus.iter().map(String::len).sum();
    println!("corpus: {} sentences, {} bytes", corpus.len(), bytes);
    run("a2_front_end/tokenize_corpus", || {
        for s in &corpus {
            black_box(cadel_lang::token::tokenize(s).unwrap());
        }
    });
    run("a2_front_end/parse_corpus", || {
        for s in &corpus {
            black_box(parse_command(s, &lexicon, &dictionary).unwrap());
        }
    });

    section("a2_compile (pre-parsed corpus)");
    // Pre-parse so the measurements isolate compilation.
    let parsed: Vec<Command> = corpus
        .iter()
        .map(|s| parse_command(s, &lexicon, &dictionary).unwrap())
        .collect();
    run("a2_compile_corpus_to_rule_objects", || {
        let mut id = 0u64;
        for cmd in &parsed {
            if let Command::Rule(sentence) = cmd {
                let rule = compiler
                    .compile_rule(black_box(sentence))
                    .unwrap()
                    .build(RuleId::new(id))
                    .unwrap();
                black_box(rule);
                id += 1;
            }
        }
    });
    // One step further: lower each rule to its executable IR program too
    // (the full sentence → rule object → RuleProgram pipeline).
    run("a2_compile_corpus_to_ir_programs", || {
        let mut interner = Interner::new();
        let mut id = 0u64;
        for cmd in &parsed {
            if let Command::Rule(sentence) = cmd {
                let (rule, program) = compiler
                    .compile_rule_program(black_box(sentence), RuleId::new(id), &mut interner)
                    .unwrap();
                black_box((rule, program));
                id += 1;
            }
        }
    });

    section("a2_evaluation (compiled rule vs per-evaluation interpretation)");
    // The payoff of compilation: evaluating a compiled rule object against
    // the live context, the cost paid on every sensor event.
    let sentence_text = "If humidity is higher than 60 percent and temperature is higher than \
         26 degrees, turn on the air conditioner with 25 degrees of temperature setting.";
    let cmd = parse_command(sentence_text, &lexicon, &dictionary).unwrap();
    let Command::Rule(sentence) = cmd else {
        panic!("expected a rule")
    };
    let rule = compiler
        .compile_rule(&sentence)
        .unwrap()
        .build(RuleId::new(1))
        .unwrap();

    // The compiled rule object as the engine holds it: a span in the rule
    // database's program arena, read against the context's slot boards.
    let mut db = RuleDb::new();
    db.insert(rule.clone()).unwrap();
    let program = *db.program_ref(rule.id()).unwrap();
    let mut ctx = ContextStore::with_interner(
        Date::new(2005, 6, 6).expect("static date"),
        db.interner().clone(),
    );
    ctx.set_now(SimTime::from_millis(1));
    ctx.set_value(
        SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
        Value::Number(Quantity::from_integer(28, Unit::Celsius)),
    );
    ctx.set_value(
        SensorKey::new(DeviceId::new("hygro-lr"), "humidity"),
        Value::Number(Quantity::from_integer(70, Unit::Percent)),
    );
    let mut held = HeldTracker::new();

    run("a2_evaluate_compiled_rule", || {
        assert!(db
            .arena()
            .condition_holds(black_box(&program), &ctx, &mut held));
    });

    // The "interpretation" alternative the paper rejects: re-parsing and
    // re-compiling the sentence on every evaluation.
    run("a2_interpret_sentence_per_evaluation", || {
        let cmd = parse_command(black_box(sentence_text), &lexicon, &dictionary).unwrap();
        let Command::Rule(sentence) = cmd else {
            panic!("expected a rule")
        };
        let rule = compiler
            .compile_rule(&sentence)
            .unwrap()
            .build(RuleId::new(1))
            .unwrap();
        let mut ev = Evaluator::new(&ctx, &mut held);
        assert!(ev.condition_holds(rule.condition()));
    });
}
