package ansmet

import "ansmet/internal/rows"

// SlabOf hands the external benchmarks a database's row slab, so a
// brute-force arm can run the row kernels over the rows the routes read.
func SlabOf(db *Database) *rows.Slab { return db.rows }

// SetScanScreenHook installs h as the exact scan's screen counter (nil
// removes it): BenchmarkExactScan counts the rows per query that survive
// the head screen with it.
func SetScanScreenHook(h func(live, survivors int)) { scanScreenHook = h }

// SetScanTestHook installs h to run at every cancellation checkpoint of an
// exact scan with a done channel (nil removes it): TestSearchRoutedAuto
// cancels a query's context there, to cut one scan mid-way whatever the
// machine's speed.
func SetScanTestHook(h func(id uint32)) { scanTestHook = h }
