//! Clean-instance generators for the sensor and orders scenarios.
//!
//! Both generators follow the same recipe as `rt-datagen`'s census
//! generator: rows revolve around repeated *entities* (devices, customers,
//! SKUs) whose dependent attributes are deterministic functions of the
//! entity, so the planted FDs hold exactly on the clean data and the
//! redundancy gives the error injector pairs to violate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_constraints::FdSet;
use rt_relation::{Instance, Schema, Tuple, Value};

/// Deterministic small hash used to derive dependent attributes from their
/// keys (same construction as the census generator's `mix_to_category`).
fn mix(values: &[i64], salt: u64, cardinality: usize) -> usize {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ salt;
    for &v in values {
        h ^= v as u64;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    (h % cardinality.max(1) as u64) as usize
}

/// Sensor readings: repeated devices reporting repeated metrics, with a
/// float `reading` column. Planted FDs: `device_id → site` and
/// `metric → unit`.
pub fn sensor_readings(rows: usize, seed: u64) -> (Instance, FdSet) {
    const METRICS: [(&str, &str); 4] = [
        ("temperature", "celsius"),
        ("humidity", "percent"),
        ("pressure", "kilopascal"),
        ("vibration", "mm_per_s"),
    ];
    let schema = Schema::new(
        "sensor_readings",
        vec!["device_id", "site", "metric", "unit", "reading", "hour"],
    )
    .expect("valid schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let devices = (rows / 8).max(2);
    let sites = (devices / 3).max(2);
    let mut instance = Instance::new(schema.clone());
    for _ in 0..rows {
        let d = rng.gen_range(0..devices) as i64;
        let site = mix(&[d], 0xDE5, sites);
        let m = rng.gen_range(0..METRICS.len());
        let (metric, unit) = METRICS[m];
        // One decimal place keeps readings float-typed and printable.
        let reading = (rng.gen_range(0..4000) as f64) / 10.0 - 50.0;
        instance
            .push(Tuple::new(vec![
                Value::str(format!("dev-{d:03}")),
                Value::str(format!("site-{site}")),
                Value::str(metric),
                Value::str(unit),
                Value::float(reading),
                Value::int(rng.gen_range(0..24)),
            ]))
            .expect("arity matches");
    }
    let fds = FdSet::parse(&["device_id->site", "metric->unit"], &schema).expect("valid FDs");
    debug_assert!(fds.holds_on(&instance));
    (instance, fds)
}

/// Denormalized orders joining customer and product reference data into one
/// relation. Planted FDs: `customer_id → {customer_city, segment}`,
/// `sku → {product_name, unit_price}` and the composite
/// `sku, warehouse → ship_mode` (the FD-corruption channel drops one of
/// its LHS attributes, yielding a genuinely inaccurate constraint:
/// `ship_mode` is determined only by the *pair*, so the weakened FD is
/// false on the clean data).
pub fn orders(rows: usize, seed: u64) -> (Instance, FdSet) {
    const CITIES: [&str; 8] = [
        "Waterloo", "Toronto", "Doha", "Boston", "Chicago", "Austin", "Raleigh", "Denver",
    ];
    const SEGMENTS: [&str; 3] = ["consumer", "corporate", "home_office"];
    const CATEGORIES: [&str; 5] = ["paper", "binders", "chairs", "phones", "storage"];
    const WAREHOUSES: [&str; 3] = ["east", "central", "west"];
    const MODES: [&str; 4] = ["ground", "two_day", "overnight", "freight"];
    let schema = Schema::new(
        "orders",
        vec![
            "order_id",
            "customer_id",
            "customer_city",
            "segment",
            "sku",
            "product_name",
            "unit_price",
            "quantity",
            "warehouse",
            "ship_mode",
        ],
    )
    .expect("valid schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let customers = (rows / 6).max(2);
    let skus = (rows / 9).max(2);
    let mut instance = Instance::new(schema.clone());
    for order in 0..rows {
        let c = rng.gen_range(0..customers) as i64;
        let s = rng.gen_range(0..skus) as i64;
        let w = rng.gen_range(0..WAREHOUSES.len());
        let category = CATEGORIES[mix(&[s], 0xCA7, CATEGORIES.len())];
        instance
            .push(Tuple::new(vec![
                Value::int(100_000 + order as i64),
                Value::str(format!("cust-{c:04}")),
                Value::str(CITIES[mix(&[c], 0xC17, CITIES.len())]),
                Value::str(SEGMENTS[mix(&[c], 0x5E6, SEGMENTS.len())]),
                Value::str(format!("SKU-{s:03}")),
                Value::str(format!("{category} item {s}")),
                Value::float((mix(&[s], 0x981C, 8000) as f64) / 100.0 + 1.99),
                Value::int(rng.gen_range(1..12)),
                Value::str(WAREHOUSES[w]),
                Value::str(MODES[mix(&[s, w as i64], 0x5417, MODES.len())]),
            ]))
            .expect("arity matches");
    }
    let fds = FdSet::parse(
        &[
            "customer_id->customer_city",
            "customer_id->segment",
            "sku->product_name",
            "sku->unit_price",
            "sku,warehouse->ship_mode",
        ],
        &schema,
    )
    .expect("valid FDs");
    debug_assert!(fds.holds_on(&instance));
    (instance, fds)
}

/// Rows per warehouse *region*. Regions are the scale-out unit: every
/// store and product key is region-scoped (`R{r}-S{s}` / `R{r}-P{p}`), so
/// FD blocking classes never cross regions and the conflict graph of a
/// warehouse instance decomposes into ~one connected component per region.
/// Growing `rows` grows the number of regions, never the size of a
/// blocking class — per-row load and graph-build work stays flat from 10k
/// to 1M rows, and a sharded engine gets `rows / WAREHOUSE_ROWS_PER_REGION`
/// independent shards to build.
pub const WAREHOUSE_ROWS_PER_REGION: usize = 4096;

const WAREHOUSE_STORES_PER_REGION: usize = 32;
const WAREHOUSE_PRODUCTS_PER_REGION: usize = 64;

/// One generated warehouse row; `corrupt` is `Some(k)` for the `k`-th
/// injected error (a wrong, out-of-domain store city).
struct WarehouseRow {
    store_id: String,
    store_city: String,
    product_id: String,
    product_name: String,
    unit_price: i64,
    qty: i64,
}

fn warehouse_row(row: usize, seed: u64, corrupt: Option<usize>) -> WarehouseRow {
    let r = (row / WAREHOUSE_ROWS_PER_REGION) as i64;
    let s = mix(&[row as i64], seed ^ 0x570E, WAREHOUSE_STORES_PER_REGION) as i64;
    let p = mix(
        &[row as i64, 3],
        seed ^ 0x9200,
        WAREHOUSE_PRODUCTS_PER_REGION,
    ) as i64;
    let store_city = match corrupt {
        // The injected error: a city no store has, so the row conflicts
        // with every same-store row under `store_id -> store_city`.
        Some(k) => format!("wrong-{k}"),
        None => format!("city-{r}-{}", mix(&[r, s], seed ^ 0xC170, 12)),
    };
    WarehouseRow {
        store_id: format!("R{r}-S{s:02}"),
        store_city,
        product_id: format!("R{r}-P{p:02}"),
        product_name: format!("item-{r}-{p}"),
        unit_price: 100 + mix(&[r, p], seed ^ 0x9B1C, 900) as i64,
        qty: 1 + mix(&[row as i64, 77], seed ^ 0x47AA, 50) as i64,
    }
}

/// The deterministic error placement: `errors` distinct rows (linear
/// probing on collision), mapped to their error index.
fn warehouse_error_rows(
    rows: usize,
    seed: u64,
    errors: usize,
) -> std::collections::BTreeMap<usize, usize> {
    let mut placed = std::collections::BTreeMap::new();
    if rows == 0 {
        return placed;
    }
    for k in 0..errors.min(rows) {
        let mut row = mix(&[k as i64], seed ^ 0xE44A, rows);
        while placed.contains_key(&row) {
            row = (row + 1) % rows;
        }
        placed.insert(row, k);
    }
    placed
}

fn warehouse_schema() -> Schema {
    Schema::new(
        "warehouse",
        vec![
            "store_id",
            "store_city",
            "product_id",
            "product_name",
            "unit_price",
            "qty",
        ],
    )
    .expect("valid schema")
}

/// The warehouse FD set: `store_id → store_city`,
/// `product_id → {product_name, unit_price}`.
pub fn warehouse_fds(schema: &Schema) -> FdSet {
    FdSet::parse(
        &[
            "store_id->store_city",
            "product_id->product_name",
            "product_id->unit_price",
        ],
        schema,
    )
    .expect("valid FDs")
}

/// The clean warehouse instance: `rows` shipment records with
/// region-scoped store/product keys (see [`WAREHOUSE_ROWS_PER_REGION`]).
pub fn warehouse(rows: usize, seed: u64) -> (Instance, FdSet) {
    warehouse_with_errors(rows, seed, 0)
}

/// [`warehouse`] with `errors` corrupted store cities at deterministic,
/// seed-dependent rows. The error count is *absolute*, not a rate: the
/// dirty conflict structure — and with it the repair-search work — is the
/// same at 10k rows and at 1M rows; only the linear load/build work grows.
pub fn warehouse_with_errors(rows: usize, seed: u64, errors: usize) -> (Instance, FdSet) {
    let schema = warehouse_schema();
    let error_rows = warehouse_error_rows(rows, seed, errors);
    let mut instance = Instance::new(schema.clone());
    for row in 0..rows {
        let w = warehouse_row(row, seed, error_rows.get(&row).copied());
        instance
            .push(Tuple::new(vec![
                Value::str(w.store_id),
                Value::str(w.store_city),
                Value::str(w.product_id),
                Value::str(w.product_name),
                Value::int(w.unit_price),
                Value::int(w.qty),
            ]))
            .expect("arity matches");
    }
    let fds = warehouse_fds(&schema);
    // Partition-based check — the quadratic `holds_on` fallback would make
    // debug-mode warehouse generation O(rows²).
    debug_assert!(errors > 0 || rt_constraints::ConflictGraph::build(&instance, &fds).is_empty());
    (instance, fds)
}

/// Streams the dirty warehouse relation as CSV — header plus
/// `warehouse_with_errors(rows, seed, errors)` row for row — without ever
/// materializing the instance (or the text) in memory. This is the 1M-row
/// ingestion fixture: loading the output through the chunked typed reader
/// (`rt_io::load_path_chunked`) reproduces the generated instance exactly,
/// codes, dictionaries and all.
pub fn write_warehouse_csv<W: std::io::Write>(
    out: &mut W,
    rows: usize,
    seed: u64,
    errors: usize,
) -> std::io::Result<()> {
    writeln!(
        out,
        "store_id,store_city,product_id,product_name,unit_price,qty"
    )?;
    let error_rows = warehouse_error_rows(rows, seed, errors);
    for row in 0..rows {
        let w = warehouse_row(row, seed, error_rows.get(&row).copied());
        writeln!(
            out,
            "{},{},{},{},{},{}",
            w.store_id, w.store_city, w.product_id, w.product_name, w.unit_price, w.qty
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::{AttrId, CellRef};

    #[test]
    fn sensor_fds_hold_and_readings_are_floats() {
        let (inst, fds) = sensor_readings(200, 42);
        assert_eq!(inst.len(), 200);
        assert!(fds.holds_on(&inst));
        let has_float = (0..inst.len())
            .any(|r| matches!(inst.cell(CellRef::new(r, AttrId(4))), Ok(Value::Float(_))));
        assert!(has_float);
        // Deterministic per seed.
        assert_eq!(inst, sensor_readings(200, 42).0);
        assert_ne!(inst, sensor_readings(200, 43).0);
    }

    #[test]
    fn warehouse_fds_hold_clean_and_break_dirty() {
        let (clean, fds) = warehouse(3000, 11);
        assert_eq!(clean.len(), 3000);
        assert!(fds.holds_on(&clean));
        let (dirty, dirty_fds) = warehouse_with_errors(3000, 11, 24);
        assert!(!dirty_fds.holds_on(&dirty));
        // Exactly the 24 error rows differ, all in the store_city column.
        let mut changed = 0;
        for row in 0..3000 {
            for a in 0..clean.schema().arity() {
                let cell = CellRef::new(row, AttrId(a as u16));
                if clean.cell(cell).unwrap() != dirty.cell(cell).unwrap() {
                    assert_eq!(a, 1, "only store_city is corrupted");
                    changed += 1;
                }
            }
        }
        assert_eq!(changed, 24);
        // Deterministic per seed, distinct across seeds.
        assert_eq!(dirty, warehouse_with_errors(3000, 11, 24).0);
        assert_ne!(dirty, warehouse_with_errors(3000, 12, 24).0);
    }

    #[test]
    fn warehouse_csv_round_trips_through_the_chunked_loader() {
        let rows = 2500;
        let mut csv = Vec::new();
        write_warehouse_csv(&mut csv, rows, 5, 16).unwrap();
        let report = rt_io::read_instance_chunked(
            csv.as_slice(),
            512,
            &rt_io::CsvOptions::csv().relation("warehouse"),
        )
        .unwrap();
        let (generated, _) = warehouse_with_errors(rows, 5, 16);
        // Same rows in the same order through the same encoding path:
        // the instances agree cell for cell, codes, dictionaries and all.
        assert_eq!(report.instance, generated);
        assert_eq!(report.null_cells, 0);
    }

    #[test]
    fn order_fds_hold_including_the_composite() {
        let (inst, fds) = orders(240, 7);
        assert_eq!(inst.len(), 240);
        assert_eq!(fds.len(), 5);
        assert!(fds.holds_on(&inst));
        // Dropping either LHS attribute from the composite FD makes it
        // false on the clean data (ship_mode is a function of the *pair*)
        // — that is the scenario's inaccurate constraint.
        let composite = fds.get(4);
        assert_eq!(composite.lhs.len(), 2);
    }
}
