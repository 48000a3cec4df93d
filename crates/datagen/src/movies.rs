//! The IMDb-like movie database generator.
//!
//! Schema (a superset of the paper's Section 3 example):
//!
//! ```text
//! MOVIE(mid, title, year, duration, did)
//! DIRECTOR(did, name)
//! GENRE(mid, genre)
//! ACTOR(aid, name)
//! CASTS(mid, aid)
//! ```
//!
//! Value distributions are Zipf-skewed — a few prolific directors, popular
//! genres and busy actors dominate, as in the real IMDb — which gives the
//! statistics module realistic selectivity spreads.

use crate::zipf::Zipf;
use cqp_storage::{DataType, Database, RelationSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The genre vocabulary.
pub const GENRES: [&str; 16] = [
    "drama",
    "comedy",
    "action",
    "thriller",
    "romance",
    "crime",
    "adventure",
    "sci-fi",
    "horror",
    "musical",
    "fantasy",
    "mystery",
    "war",
    "western",
    "animation",
    "documentary",
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct MovieDbConfig {
    /// Number of movies.
    pub movies: usize,
    /// Number of directors.
    pub directors: usize,
    /// Number of actors.
    pub actors: usize,
    /// Genre rows per movie (minimum 1).
    pub genres_per_movie: usize,
    /// Cast rows per movie (minimum 1).
    pub cast_per_movie: usize,
    /// Tuples per block.
    pub block_capacity: usize,
    /// Zipf skew applied to directors, genres, and actors.
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MovieDbConfig {
    fn default() -> Self {
        MovieDbConfig {
            movies: 3000,
            directors: 300,
            actors: 2000,
            genres_per_movie: 2,
            cast_per_movie: 5,
            block_capacity: 64,
            theta: 0.9,
            seed: 42,
        }
    }
}

impl MovieDbConfig {
    /// A small configuration for unit tests (fast to build and analyze).
    pub fn tiny(seed: u64) -> Self {
        MovieDbConfig {
            movies: 200,
            directors: 20,
            actors: 100,
            genres_per_movie: 2,
            cast_per_movie: 3,
            block_capacity: 16,
            theta: 0.9,
            seed,
        }
    }
}

/// Generates the movie database.
pub fn generate_movie_db(config: &MovieDbConfig) -> Database {
    assert!(config.movies > 0 && config.directors > 0 && config.actors > 0);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = Database::with_block_capacity(config.block_capacity);

    let movie = db
        .create_relation(RelationSchema::new(
            "MOVIE",
            vec![
                ("mid", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("duration", DataType::Int),
                ("did", DataType::Int),
            ],
        ))
        .expect("fresh database");
    let director = db
        .create_relation(RelationSchema::new(
            "DIRECTOR",
            vec![("did", DataType::Int), ("name", DataType::Str)],
        ))
        .expect("fresh database");
    let genre = db
        .create_relation(RelationSchema::new(
            "GENRE",
            vec![("mid", DataType::Int), ("genre", DataType::Str)],
        ))
        .expect("fresh database");
    let actor = db
        .create_relation(RelationSchema::new(
            "ACTOR",
            vec![("aid", DataType::Int), ("name", DataType::Str)],
        ))
        .expect("fresh database");
    let casts = db
        .create_relation(RelationSchema::new(
            "CASTS",
            vec![("mid", DataType::Int), ("aid", DataType::Int)],
        ))
        .expect("fresh database");

    let director_z = Zipf::new(config.directors, config.theta);
    let genre_z = Zipf::new(GENRES.len(), config.theta);
    let actor_z = Zipf::new(config.actors, config.theta);
    let year_z = Zipf::new(60, 0.5); // recent years more common

    for d in 0..config.directors {
        db.insert(
            director,
            vec![Value::Int(d as i64), Value::str(director_name(d))],
        )
        .expect("valid row");
    }
    for a in 0..config.actors {
        db.insert(actor, vec![Value::Int(a as i64), Value::str(actor_name(a))])
            .expect("valid row");
    }

    for m in 0..config.movies {
        let year = 2005 - year_z.sample(&mut rng) as i64;
        let duration = 60 + rng.gen_range(0..120) as i64;
        let did = director_z.sample(&mut rng) as i64;
        db.insert(
            movie,
            vec![
                Value::Int(m as i64),
                Value::str(format!("Movie #{m:05}")),
                Value::Int(year),
                Value::Int(duration),
                Value::Int(did),
            ],
        )
        .expect("valid row");

        // Distinct genres per movie.
        let mut genres: Vec<usize> = Vec::new();
        while genres.len() < config.genres_per_movie.max(1).min(GENRES.len()) {
            let g = genre_z.sample(&mut rng);
            if !genres.contains(&g) {
                genres.push(g);
            }
        }
        for g in genres {
            db.insert(genre, vec![Value::Int(m as i64), Value::str(GENRES[g])])
                .expect("valid row");
        }

        // Distinct cast members per movie.
        let mut cast: Vec<usize> = Vec::new();
        let want = config.cast_per_movie.max(1).min(config.actors);
        while cast.len() < want {
            let a = actor_z.sample(&mut rng);
            if !cast.contains(&a) {
                cast.push(a);
            }
        }
        for a in cast {
            db.insert(casts, vec![Value::Int(m as i64), Value::Int(a as i64)])
                .expect("valid row");
        }
    }

    db
}

/// Deterministic director name for an id.
pub fn director_name(d: usize) -> String {
    format!("Director {d:04}")
}

/// Deterministic actor name for an id.
pub fn actor_name(a: usize) -> String {
    format!("Actor {a:05}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_expected_shape() {
        let db = generate_movie_db(&MovieDbConfig::tiny(1));
        let c = db.catalog();
        assert_eq!(c.len(), 5);
        let movie = c.relation_id("MOVIE").unwrap();
        let genre = c.relation_id("GENRE").unwrap();
        let casts = c.relation_id("CASTS").unwrap();
        assert_eq!(db.table(movie).unwrap().num_rows(), 200);
        assert_eq!(db.table(genre).unwrap().num_rows(), 400);
        assert_eq!(db.table(casts).unwrap().num_rows(), 600);
        assert!(db.total_blocks() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_movie_db(&MovieDbConfig::tiny(5));
        let b = generate_movie_db(&MovieDbConfig::tiny(5));
        let movie = a.catalog().relation_id("MOVIE").unwrap();
        let rows_a: Vec<_> = a.table(movie).unwrap().rows().collect();
        let rows_b: Vec<_> = b.table(movie).unwrap().rows().collect();
        assert_eq!(rows_a, rows_b);
        let c = generate_movie_db(&MovieDbConfig::tiny(6));
        let rows_c: Vec<_> = c.table(movie).unwrap().rows().collect();
        assert_ne!(rows_a, rows_c);
    }

    #[test]
    fn genres_are_skewed() {
        let db = generate_movie_db(&MovieDbConfig::tiny(2));
        let stats = db.analyze();
        let genre = db.catalog().relation_id("GENRE").unwrap();
        let col = &stats.table(genre.index()).unwrap().columns[1];
        // The most common genre covers clearly more than a uniform share.
        let top = col.mcv[0].1 as f64 / col.n_rows as f64;
        assert!(top > 1.5 / GENRES.len() as f64, "top share {top}");
    }

    #[test]
    fn referential_integrity() {
        let db = generate_movie_db(&MovieDbConfig::tiny(3));
        let c = db.catalog();
        let movie = c.relation_id("MOVIE").unwrap();
        let n_directors = db
            .table(c.relation_id("DIRECTOR").unwrap())
            .unwrap()
            .num_rows();
        for row in db.table(movie).unwrap().rows() {
            let Value::Int(did) = row[4] else {
                panic!("did must be int")
            };
            assert!((did as usize) < n_directors);
        }
    }
}
