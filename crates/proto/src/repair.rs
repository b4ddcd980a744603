//! Lossless wire codec for repairs and spectrum points.

use crate::value::{
    array_field, decode_value, encode_value, num, obj, u64_field, u64_str, usize_field,
};
use rt_constraints::{AttrSet, Fd, FdSet};
use rt_core::{Repair, RepairState, SearchStats};
use rt_engine::json::JsonValue;
use rt_engine::RepairPoint;
use rt_relation::{AttrId, CellRef, Instance, Schema, Tuple};

fn encode_attrset(set: AttrSet) -> JsonValue {
    JsonValue::Arr(set.iter().map(|a| num(a.index())).collect())
}

fn decode_attrset(v: &JsonValue, what: &str) -> Result<AttrSet, String> {
    let items = v
        .as_array()
        .ok_or_else(|| format!("{what} must be an array of attribute indices"))?;
    let mut attrs = Vec::with_capacity(items.len());
    for item in items {
        let idx = item
            .as_usize()
            .ok_or_else(|| format!("{what} must contain attribute indices"))?;
        if idx >= 64 {
            return Err(format!("{what}: attribute index {idx} out of range"));
        }
        attrs.push(AttrId(idx as u16));
    }
    Ok(AttrSet::from_attrs(attrs))
}

/// Encodes a [`Repair`] for the wire.
///
/// Everything [`rt_engine::Spectrum::bit_identical`] compares is carried
/// exactly: the search state and modified FDs structurally (attribute
/// indices), `dist_c` as its raw bits, cells via the tagged value encoding,
/// and the repaired V-instance's fresh-variable counters (part of
/// [`Instance`] equality) alongside its tuples. Search statistics are
/// deliberately *not* sent — they describe server-side work, and the
/// decoded repair reports zeroed stats.
pub fn encode_repair(repair: &Repair) -> JsonValue {
    obj(vec![
        ("tau", u64_str(repair.tau as u64)),
        ("delta_p", num(repair.delta_p)),
        ("dist_c", u64_str(repair.dist_c.to_bits())),
        (
            "state",
            JsonValue::Arr(
                repair
                    .state
                    .extensions()
                    .iter()
                    .map(|e| encode_attrset(*e))
                    .collect(),
            ),
        ),
        (
            "fds",
            JsonValue::Arr(
                repair
                    .modified_fds
                    .iter()
                    .map(|(_, fd)| {
                        obj(vec![
                            ("lhs", encode_attrset(fd.lhs)),
                            ("rhs", num(fd.rhs.index())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cells",
            JsonValue::Arr(
                repair
                    .changed_cells
                    .iter()
                    .map(|c| JsonValue::Arr(vec![num(c.row), num(c.attr.index())]))
                    .collect(),
            ),
        ),
        (
            "rows",
            JsonValue::Arr(
                (0..repair.repaired_instance.len())
                    .map(|row| encode_row(&repair.repaired_instance, row))
                    .collect(),
            ),
        ),
        (
            "vars",
            JsonValue::Arr(
                repair
                    .repaired_instance
                    .var_counters()
                    .iter()
                    .map(|&c| num(c as usize))
                    .collect(),
            ),
        ),
    ])
}

/// One row of the `rows` field: each cell's value, read from its column.
fn encode_row(instance: &Instance, row: usize) -> JsonValue {
    JsonValue::Arr(
        instance
            .schema()
            .attr_ids()
            .map(|a| encode_value(instance.cell(CellRef::new(row, a)).expect("row in range")))
            .collect(),
    )
}

/// Decodes a repair written by [`encode_repair`] against the session's
/// schema (the client learned it from the `loaded` response).
pub fn decode_repair(v: &JsonValue, schema: &Schema) -> Result<Repair, String> {
    let mut instance = Instance::new(schema.clone());
    for row in array_field(v, "rows")? {
        let cells = row
            .as_array()
            .ok_or("field `rows` must contain arrays of cell values")?;
        let values = cells
            .iter()
            .map(decode_value)
            .collect::<Result<Vec<_>, _>>()?;
        instance
            .push(Tuple::new(values))
            .map_err(|e| format!("bad repaired row: {e}"))?;
    }
    let vars = array_field(v, "vars")?
        .iter()
        .map(|c| {
            c.as_usize()
                .map(|n| n as u32)
                .ok_or("field `vars` must contain counters")
        })
        .collect::<Result<Vec<_>, _>>()?;
    instance
        .restore_var_counters(&vars)
        .map_err(|e| format!("bad variable counters: {e}"))?;

    let state = RepairState::new(
        array_field(v, "state")?
            .iter()
            .map(|e| decode_attrset(e, "field `state`"))
            .collect::<Result<Vec<_>, _>>()?,
    );

    let mut fds = Vec::new();
    for fd in array_field(v, "fds")? {
        let lhs = decode_attrset(crate::value::field(fd, "lhs")?, "field `fds.lhs`")?;
        let rhs = usize_field(fd, "rhs")?;
        if rhs >= schema.arity() {
            return Err(format!("field `fds.rhs`: attribute {rhs} out of range"));
        }
        fds.push(Fd::new(lhs, AttrId(rhs as u16)));
    }

    let mut changed_cells = Vec::new();
    for cell in array_field(v, "cells")? {
        let pair = cell
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or("field `cells` must contain [row, attr] pairs")?;
        let row = pair[0].as_usize().ok_or("bad cell row")?;
        let attr = pair[1].as_usize().ok_or("bad cell attr")?;
        changed_cells.push(CellRef::new(row, AttrId(attr as u16)));
    }

    Ok(Repair {
        tau: u64_field(v, "tau")? as usize,
        state,
        modified_fds: FdSet::from_fds(fds),
        dist_c: f64::from_bits(u64_field(v, "dist_c")?),
        delta_p: usize_field(v, "delta_p")?,
        repaired_instance: instance,
        changed_cells,
        search_stats: SearchStats::default(),
    })
}

/// Encodes one spectrum point (its τ interval plus the repair).
pub fn encode_point(point: &RepairPoint) -> JsonValue {
    obj(vec![
        ("lo", num(point.tau_range.0)),
        ("hi", num(point.tau_range.1)),
        ("repair", encode_repair(&point.repair)),
    ])
}

/// Decodes a spectrum point written by [`encode_point`].
pub fn decode_point(v: &JsonValue, schema: &Schema) -> Result<RepairPoint, String> {
    Ok(RepairPoint {
        tau_range: (usize_field(v, "lo")?, usize_field(v, "hi")?),
        repair: decode_repair(crate::value::field(v, "repair")?, schema)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_engine::{RepairEngine, Spectrum, WeightKind};

    fn engine() -> RepairEngine {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let instance = Instance::from_int_rows(
            schema.clone(),
            &[
                vec![1, 1, 1, 1],
                vec![1, 2, 1, 3],
                vec![2, 2, 1, 1],
                vec![2, 3, 4, 3],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
        RepairEngine::builder(instance, fds)
            .weight(WeightKind::AttrCount)
            .build()
            .unwrap()
    }

    #[test]
    fn decoded_spectrum_is_bit_identical() {
        let engine = engine();
        let schema = engine.problem().instance().schema().clone();
        let spectrum = engine.spectrum().unwrap();
        assert!(!spectrum.is_empty());
        let decoded_points = spectrum
            .points
            .iter()
            .map(|p| decode_point(&encode_point(p), &schema).unwrap())
            .collect();
        let decoded = Spectrum {
            points: decoded_points,
            search_stats: SearchStats::default(),
        };
        assert!(spectrum.bit_identical(&decoded));
        // The repaired instances use fresh variables; full Instance equality
        // (including var counters) must hold, not just tuple equality.
        for (a, b) in spectrum.points.iter().zip(decoded.points.iter()) {
            assert_eq!(a.repair.repaired_instance, b.repair.repaired_instance);
            assert_eq!(a.repair.tau, b.repair.tau);
        }
    }

    #[test]
    fn decode_rejects_malformed_repairs() {
        let engine = engine();
        let schema = engine.problem().instance().schema().clone();
        let repair = engine.repair_at(1).unwrap();
        let good = encode_repair(&repair);
        assert!(decode_repair(&good, &schema).is_ok());

        // Drop each required field in turn: every mutilation is a typed
        // error, never a panic.
        if let JsonValue::Obj(fields) = &good {
            for i in 0..fields.len() {
                let mut mutilated = fields.clone();
                mutilated.remove(i);
                assert!(decode_repair(&JsonValue::Obj(mutilated), &schema).is_err());
            }
        } else {
            panic!("encode_repair must produce an object");
        }
    }
}
