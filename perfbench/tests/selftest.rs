//! Self-tests of the benchmark: tiny-horizon runs of every workload
//! print every catalog metric with its unit, produce a result that
//! parses, fingerprint identically twice in one process, and
//! `BENCHMARK.json` lists exactly the metrics and workloads the binary
//! reports.

use std::collections::BTreeMap;

use taichi_perfbench::{result_json, run, MetricDef, Plan, Scale, Workload, END_TO_END, PER_LAYER};

/// A parsed JSON value (just enough JSON for these checks).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after the JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let Json::Str(k) = self.value() else {
                            panic!("object key is not a string")
                        };
                        self.eat(b':');
                        assert!(m.insert(k, self.value()).is_none(), "duplicate key");
                        if self.peek() == b'}' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                if self.peek() != b']' {
                    loop {
                        v.push(self.value());
                        if self.peek() == b']' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(v)
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    num => Json::Num(num.parse().unwrap_or_else(|_| panic!("bad number {num}"))),
                }
            }
        }
    }
}

fn tiny(workload: Workload, trace: bool) -> Plan {
    Plan {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
    }
}

fn check_result(json: &str, catalog: &[MetricDef]) {
    let v = Parser::parse(json);
    let Json::Obj(top) = &v else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(v.get("correct"), &Json::Bool(true));
    assert!(v.get("attempted").num() >= 1.0);
    assert_eq!(v.get("failed").num(), 0.0);
    let Json::Obj(metrics) = v.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), catalog.len());
    for def in catalog {
        let m = v.get("metrics").get(def.name);
        assert_eq!(m.get("unit").str(), def.unit, "{}", def.name);
        assert!(m.get("value").num().is_finite(), "{}", def.name);
    }
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_fingerprint() {
    for w in Workload::ALL {
        for (trace, catalog) in [(false, END_TO_END), (true, PER_LAYER)] {
            let first = run(&tiny(w, trace));
            let json = result_json(&first, trace)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            check_result(&json, catalog);
            let second = run(&tiny(w, trace));
            assert!(first.fingerprint.is_some(), "{}", w.name());
            assert_eq!(
                first.fingerprint,
                second.fingerprint,
                "{} trace={trace}",
                w.name()
            );
        }
        // Traced and untraced runs simulate the same thing.
        assert_eq!(
            run(&tiny(w, false)).fingerprint,
            run(&tiny(w, true)).fingerprint,
            "{}",
            w.name()
        );
    }
}

#[test]
fn seeds_change_the_fingerprint() {
    for w in Workload::ALL {
        let a = run(&tiny(w, false)).fingerprint;
        let b = run(&Plan {
            seed: 8,
            ..tiny(w, false)
        })
        .fingerprint;
        assert_ne!(a, b, "{}", w.name());
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let b = Parser::parse(&text);
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, want);
    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = b.get(key).arr();
        assert_eq!(listed.len(), catalog.len(), "{key}");
        for (m, def) in listed.iter().zip(catalog) {
            assert_eq!(m.get("name").str(), def.name, "{key}");
            assert_eq!(m.get("unit").str(), def.unit, "{}", def.name);
            assert_eq!(m.get("better").str(), def.better, "{}", def.name);
        }
    }
}
