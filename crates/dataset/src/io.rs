//! CSV persistence so the real Amazon dataset (or any ratings dump) can be
//! substituted for the synthetic one without code changes.
//!
//! Formats (headers required):
//!
//! * ratings file: `user,item,stars` — dense ids, stars 1..=5;
//! * prices file:  `item,price` — one row per item id `0..n_items`.

use crate::{Rating, RatingsData};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Save ratings and prices as two CSVs.
// audit: allow(dead-pub) reference writer of the CSV format: the io and pipeline round-trip tests check `load` against it
pub fn save(data: &RatingsData, ratings_path: &Path, prices_path: &Path) -> io::Result<()> {
    let mut rw = BufWriter::new(std::fs::File::create(ratings_path)?);
    writeln!(rw, "user,item,stars")?;
    for r in data.ratings() {
        writeln!(rw, "{},{},{}", r.user, r.item, r.stars)?;
    }
    rw.flush()?;
    let mut pw = BufWriter::new(std::fs::File::create(prices_path)?);
    writeln!(pw, "item,price")?;
    for (i, p) in data.prices().iter().enumerate() {
        writeln!(pw, "{i},{p}")?;
    }
    pw.flush()
}

/// Load ratings and prices from the two-CSV format written by [`save`].
/// User/item counts are inferred (max id + 1 for users; price rows for
/// items). Validation errors map to `io::ErrorKind::InvalidData`.
pub fn load(ratings_path: &Path, prices_path: &Path) -> io::Result<RatingsData> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);

    let mut prices = Vec::new();
    let pr = BufReader::new(std::fs::File::open(prices_path)?);
    for (lineno, line) in pr.lines().enumerate() {
        let line = line?;
        if lineno == 0 {
            if line.trim() != "item,price" {
                return Err(bad(format!("prices header must be 'item,price', got '{line}'")));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let item: usize = parse(parts.next(), "item", lineno)?;
        let price: f64 = parse(parts.next(), "price", lineno)?;
        if item != prices.len() {
            return Err(bad(format!(
                "prices must be listed densely: expected item {}, got {item} (line {lineno})",
                prices.len()
            )));
        }
        prices.push(price);
    }

    let mut ratings = Vec::new();
    let mut max_user = 0u32;
    let rr = BufReader::new(std::fs::File::open(ratings_path)?);
    for (lineno, line) in rr.lines().enumerate() {
        let line = line?;
        if lineno == 0 {
            if line.trim() != "user,item,stars" {
                return Err(bad(format!("ratings header must be 'user,item,stars', got '{line}'")));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let user: u32 = parse(parts.next(), "user", lineno)?;
        let item: u32 = parse(parts.next(), "item", lineno)?;
        let stars: u8 = parse(parts.next(), "stars", lineno)?;
        max_user = max_user.max(user);
        ratings.push(Rating { user, item, stars });
    }
    let n_users = if ratings.is_empty() { 0 } else { max_user as usize + 1 };
    RatingsData::try_new(n_users, prices.len(), ratings, prices).map_err(bad)
}

fn parse<T: std::str::FromStr>(field: Option<&str>, name: &str, lineno: usize) -> io::Result<T> {
    let raw = field.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("missing {name} on line {lineno}"))
    })?;
    raw.trim().parse().map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad {name} '{raw}' on line {lineno}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AmazonBooksConfig;

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join("revmax_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let rp = dir.join("ratings.csv");
        let pp = dir.join("prices.csv");
        let d = AmazonBooksConfig::small().generate(3);
        save(&d, &rp, &pp).unwrap();
        let back = load(&rp, &pp).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn rejects_bad_header() {
        let dir = std::env::temp_dir().join("revmax_io_test_hdr");
        std::fs::create_dir_all(&dir).unwrap();
        let rp = dir.join("ratings.csv");
        let pp = dir.join("prices.csv");
        std::fs::write(&rp, "user;item;stars\n").unwrap();
        std::fs::write(&pp, "item,price\n0,5.0\n").unwrap();
        let err = load(&rp, &pp).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_stars() {
        let dir = std::env::temp_dir().join("revmax_io_test_stars");
        std::fs::create_dir_all(&dir).unwrap();
        let rp = dir.join("ratings.csv");
        let pp = dir.join("prices.csv");
        std::fs::write(&rp, "user,item,stars\n0,0,9\n").unwrap();
        std::fs::write(&pp, "item,price\n0,5.0\n").unwrap();
        let err = load(&rp, &pp).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn reports_an_out_of_range_item() {
        let dir = std::env::temp_dir().join("revmax_io_test_range");
        std::fs::create_dir_all(&dir).unwrap();
        let rp = dir.join("ratings.csv");
        let pp = dir.join("prices.csv");
        std::fs::write(&rp, "user,item,stars\n0,0,4\n1,3,5\n").unwrap();
        std::fs::write(&pp, "item,price\n0,5.0\n1,6.0\n").unwrap();
        let err = load(&rp, &pp).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "item 3 out of range");
    }

    #[test]
    fn reports_a_duplicate_sorted_or_not() {
        let dir = std::env::temp_dir().join("revmax_io_test_dup");
        std::fs::create_dir_all(&dir).unwrap();
        let rp = dir.join("ratings.csv");
        let pp = dir.join("prices.csv");
        std::fs::write(&pp, "item,price\n0,5.0\n1,6.0\n").unwrap();
        for body in ["0,0,4\n0,1,2\n0,1,5\n", "0,1,2\n0,0,4\n0,1,5\n"] {
            std::fs::write(&rp, format!("user,item,stars\n{body}")).unwrap();
            let err = load(&rp, &pp).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "duplicate rating for (user 0, item 1)");
        }
    }

    #[test]
    fn rejects_sparse_price_rows() {
        let dir = std::env::temp_dir().join("revmax_io_test_sparse");
        std::fs::create_dir_all(&dir).unwrap();
        let rp = dir.join("ratings.csv");
        let pp = dir.join("prices.csv");
        std::fs::write(&rp, "user,item,stars\n").unwrap();
        std::fs::write(&pp, "item,price\n1,5.0\n").unwrap();
        let err = load(&rp, &pp).unwrap_err();
        assert!(err.to_string().contains("densely"));
    }
}
