//! The one engine-configuration surface shared by CLI, REPL, server and
//! driver.

use crate::value::{obj, str_field, u64_field, u64_str, usize_field};
use rt_engine::json::JsonValue;
use rt_engine::{Parallelism, RepairEngineBuilder, WeightKind};

/// Reads the value following the flag at `args[*i]`, advancing `i` past it.
/// The one value reader of every command-line and REPL flag.
pub fn take_value(args: &[String], i: &mut usize) -> Result<String, String> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("missing value after `{flag}`"))
}

/// Engine-configuration options (`--weight`, `--seed`, `--max-expansions`,
/// `--threads`).
///
/// This type *is* the option surface: `rtclean` subcommands, the
/// `rtclean connect` REPL and `create_session` requests all parse and
/// validate through [`EngineOpts::consume_flag`] / the wire codec, and the
/// server applies the result with [`EngineOpts::configure`]. There is no
/// second parser to drift out of sync.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOpts {
    /// FD weighting function.
    pub weight: WeightKind,
    /// Seed of the data-repair step.
    pub seed: u64,
    /// FD-search expansion cap.
    pub max_expansions: usize,
    /// Worker threads.
    pub threads: Parallelism,
}

impl EngineOpts {
    /// Defaults, with a caller-chosen default seed (the CSV front ends use
    /// 0; scenarios use the catalog default 17).
    pub fn new(default_seed: u64) -> Self {
        EngineOpts {
            weight: WeightKind::DistinctCount,
            seed: default_seed,
            max_expansions: 500_000,
            threads: Parallelism::Auto,
        }
    }

    /// Tries to consume `args[*i]` as one of the engine options, advancing
    /// `i` past any flag value. Returns `Ok(true)` when consumed — the
    /// single CLI/REPL parsing path.
    pub fn consume_flag(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        match args[*i].as_str() {
            "--weight" => {
                let v = take_value(args, i)?;
                self.weight = Self::parse_weight(&v)?;
            }
            "--seed" => {
                let v = take_value(args, i)?;
                self.seed = v
                    .parse()
                    .map_err(|_| format!("invalid --seed value `{v}`"))?;
            }
            "--max-expansions" => {
                let v = take_value(args, i)?;
                self.max_expansions = v
                    .parse()
                    .map_err(|_| format!("invalid --max-expansions value `{v}`"))?;
            }
            "--threads" => {
                let v = take_value(args, i)?;
                self.threads = Parallelism::parse(&v).map_err(|e| format!("--threads: {e}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parses the CLI/wire spelling of a weight kind.
    pub fn parse_weight(s: &str) -> Result<WeightKind, String> {
        match s {
            "distinct" => Ok(WeightKind::DistinctCount),
            "count" => Ok(WeightKind::AttrCount),
            "entropy" => Ok(WeightKind::Entropy),
            other => Err(format!("unknown --weight `{other}`")),
        }
    }

    /// The stable spelling of this weight kind (inverse of
    /// [`EngineOpts::parse_weight`]).
    pub fn weight_name(&self) -> &'static str {
        match self.weight {
            WeightKind::DistinctCount => "distinct",
            WeightKind::AttrCount => "count",
            WeightKind::Entropy => "entropy",
        }
    }

    /// The stable spelling of the thread setting (`"auto"`, `"serial"`, or
    /// a count — exactly what [`Parallelism::parse`] accepts).
    pub fn threads_spec(&self) -> String {
        match self.threads {
            Parallelism::Auto => "auto".to_string(),
            Parallelism::Serial => "serial".to_string(),
            Parallelism::Fixed(n) => n.to_string(),
        }
    }

    /// Applies these options to an engine builder.
    pub fn configure(&self, builder: RepairEngineBuilder) -> RepairEngineBuilder {
        builder
            .weight(self.weight)
            .parallelism(self.threads)
            .max_expansions(self.max_expansions)
            .seed(self.seed)
    }

    pub(crate) fn encode(&self) -> JsonValue {
        obj(vec![
            ("weight", JsonValue::Str(self.weight_name().to_string())),
            ("seed", u64_str(self.seed)),
            ("max_expansions", crate::value::num(self.max_expansions)),
            ("threads", JsonValue::Str(self.threads_spec())),
        ])
    }

    /// Fields other than the four are ignored, so a `create_session` from
    /// a peer that still sends `shard_rows` decodes.
    pub(crate) fn decode(v: &JsonValue) -> Result<EngineOpts, String> {
        Ok(EngineOpts {
            weight: Self::parse_weight(str_field(v, "weight")?)
                .map_err(|e| format!("field `weight`: {e}"))?,
            seed: u64_field(v, "seed")?,
            max_expansions: usize_field(v, "max_expansions")?,
            threads: Parallelism::parse(str_field(v, "threads")?)
                .map_err(|e| format!("field `threads`: {e}"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn consume_flag_parses_every_option() {
        let argv = args(&[
            "--weight",
            "entropy",
            "--seed",
            "9",
            "--max-expansions",
            "1234",
            "--threads",
            "serial",
            "--other",
        ]);
        let mut opts = EngineOpts::new(0);
        let mut i = 0;
        while i < argv.len() {
            if !opts.consume_flag(&argv, &mut i).unwrap() {
                assert_eq!(argv[i], "--other");
                break;
            }
            i += 1;
        }
        assert_eq!(opts.weight, WeightKind::Entropy);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.max_expansions, 1234);
        assert_eq!(opts.threads, Parallelism::Serial);
    }

    #[test]
    fn consume_flag_rejects_bad_values() {
        let mut opts = EngineOpts::new(0);
        let mut i = 0;
        assert!(opts
            .consume_flag(&args(&["--weight", "bogus"]), &mut i)
            .is_err());
        let mut i = 0;
        assert!(opts.consume_flag(&args(&["--seed", "x"]), &mut i).is_err());
        let mut i = 0;
        assert!(opts.consume_flag(&args(&["--threads"]), &mut i).is_err());
    }

    #[test]
    fn wire_codec_round_trips_including_64_bit_seeds() {
        let opts = EngineOpts {
            weight: WeightKind::AttrCount,
            seed: u64::MAX,
            max_expansions: 77,
            threads: Parallelism::Fixed(4),
        };
        let decoded = EngineOpts::decode(&opts.encode()).unwrap();
        assert_eq!(decoded, opts);
    }

    #[test]
    fn wire_decode_ignores_a_legacy_shard_rows_field() {
        // A create_session from a peer that still sends the dropped option.
        let opts = EngineOpts::new(3);
        let mut encoded = opts.encode();
        let JsonValue::Obj(fields) = &mut encoded else {
            panic!("options encode as an object");
        };
        fields.push(("shard_rows".to_string(), JsonValue::Str("off".to_string())));
        assert_eq!(EngineOpts::decode(&encoded).unwrap(), opts);
    }
}
