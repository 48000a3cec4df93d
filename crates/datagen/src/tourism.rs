//! The tourist-information scenario of the paper's introduction.
//!
//! "Al is registered with a web-based service providing tourist information
//! for various places … When Al is in Pisa, he may ask for a few local
//! restaurants using his palmtop." The schema:
//!
//! ```text
//! CITY(cid, name, country)
//! RESTAURANT(rid, name, cid, cuisine, price)
//! HOTEL(hid, name, cid, stars)
//! SIGHT(sid, name, cid, kind)
//! ```

use crate::zipf::Zipf;
use cqp_storage::{DataType, Database, RelationSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cuisines used by the generator.
pub const CUISINES: [&str; 8] = [
    "italian",
    "tuscan",
    "seafood",
    "pizzeria",
    "french",
    "indian",
    "japanese",
    "vegetarian",
];

/// Sight kinds used by the generator.
pub const SIGHT_KINDS: [&str; 5] = ["museum", "church", "tower", "square", "gallery"];

/// City names used by the generator (Pisa first, for the paper's example).
pub const CITIES: [&str; 10] = [
    "Pisa", "Florence", "Rome", "Siena", "Venice", "Milan", "Naples", "Bologna", "Turin", "Genoa",
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TourismConfig {
    /// Restaurants per city (on average).
    pub restaurants_per_city: usize,
    /// Hotels per city (on average).
    pub hotels_per_city: usize,
    /// Sights per city (on average).
    pub sights_per_city: usize,
    /// Tuples per block.
    pub block_capacity: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TourismConfig {
    fn default() -> Self {
        TourismConfig {
            restaurants_per_city: 60,
            hotels_per_city: 25,
            sights_per_city: 15,
            block_capacity: 32,
            seed: 17,
        }
    }
}

/// Generates the tourist-information database.
pub fn generate_tourism_db(config: &TourismConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = Database::with_block_capacity(config.block_capacity);

    db.create_relation(RelationSchema::new(
        "CITY",
        vec![
            ("cid", DataType::Int),
            ("name", DataType::Str),
            ("country", DataType::Str),
        ],
    ))
    .expect("fresh database");
    db.create_relation(RelationSchema::new(
        "RESTAURANT",
        vec![
            ("rid", DataType::Int),
            ("name", DataType::Str),
            ("cid", DataType::Int),
            ("cuisine", DataType::Str),
            ("price", DataType::Int),
        ],
    ))
    .expect("fresh database");
    db.create_relation(RelationSchema::new(
        "HOTEL",
        vec![
            ("hid", DataType::Int),
            ("name", DataType::Str),
            ("cid", DataType::Int),
            ("stars", DataType::Int),
        ],
    ))
    .expect("fresh database");
    db.create_relation(RelationSchema::new(
        "SIGHT",
        vec![
            ("sid", DataType::Int),
            ("name", DataType::Str),
            ("cid", DataType::Int),
            ("kind", DataType::Str),
        ],
    ))
    .expect("fresh database");

    for (cid, name) in CITIES.iter().enumerate() {
        db.insert_into(
            "CITY",
            vec![
                Value::Int(cid as i64),
                Value::str(*name),
                Value::str("Italy"),
            ],
        )
        .expect("valid row");
    }

    let cuisine_z = Zipf::new(CUISINES.len(), 0.8);
    let kind_z = Zipf::new(SIGHT_KINDS.len(), 0.8);
    let mut rid = 0i64;
    let mut hid = 0i64;
    let mut sid = 0i64;
    for cid in 0..CITIES.len() as i64 {
        for _ in 0..config.restaurants_per_city {
            let cuisine = CUISINES[cuisine_z.sample(&mut rng)];
            let price = 10 + rng.gen_range(0..80) as i64;
            db.insert_into(
                "RESTAURANT",
                vec![
                    Value::Int(rid),
                    Value::str(format!("Ristorante {rid:04}")),
                    Value::Int(cid),
                    Value::str(cuisine),
                    Value::Int(price),
                ],
            )
            .expect("valid row");
            rid += 1;
        }
        for _ in 0..config.hotels_per_city {
            db.insert_into(
                "HOTEL",
                vec![
                    Value::Int(hid),
                    Value::str(format!("Hotel {hid:04}")),
                    Value::Int(cid),
                    Value::Int(rng.gen_range(1..=5) as i64),
                ],
            )
            .expect("valid row");
            hid += 1;
        }
        for _ in 0..config.sights_per_city {
            db.insert_into(
                "SIGHT",
                vec![
                    Value::Int(sid),
                    Value::str(format!("Sight {sid:04}")),
                    Value::Int(cid),
                    Value::str(SIGHT_KINDS[kind_z.sample(&mut rng)]),
                ],
            )
            .expect("valid row");
            sid += 1;
        }
    }

    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_integrity() {
        let db = generate_tourism_db(&TourismConfig::default());
        let c = db.catalog();
        assert_eq!(c.len(), 4);
        let city = c.relation_id("CITY").unwrap();
        let rest = c.relation_id("RESTAURANT").unwrap();
        assert_eq!(db.table(city).unwrap().num_rows(), CITIES.len());
        assert_eq!(db.table(rest).unwrap().num_rows(), CITIES.len() * 60);
        // Every restaurant's cid is a valid city.
        for row in db.table(rest).unwrap().rows() {
            let Value::Int(cid) = row[2] else {
                panic!("cid must be int")
            };
            assert!((cid as usize) < CITIES.len());
        }
    }

    #[test]
    fn pisa_exists_with_restaurants() {
        let db = generate_tourism_db(&TourismConfig::default());
        let city = db.catalog().relation_id("CITY").unwrap();
        let pisa = db
            .table(city)
            .unwrap()
            .rows()
            .find(|r| r[1] == Value::str("Pisa"))
            .expect("Pisa generated");
        assert_eq!(pisa[0], Value::Int(0));
    }

    #[test]
    fn deterministic() {
        let a = generate_tourism_db(&TourismConfig::default());
        let b = generate_tourism_db(&TourismConfig::default());
        let rest = a.catalog().relation_id("RESTAURANT").unwrap();
        let ra: Vec<_> = a.table(rest).unwrap().rows().collect();
        let rb: Vec<_> = b.table(rest).unwrap().rows().collect();
        assert_eq!(ra, rb);
    }
}
