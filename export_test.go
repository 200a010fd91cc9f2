package ansmet

import "ansmet/internal/rows"

// SlabOf hands the external benchmarks a database's row slab, so a
// brute-force arm can run the row kernels over the rows the routes read.
func SlabOf(db *Database) *rows.Slab { return db.rows }
