// Interoperating with standard tooling: write a system in MatrixMarket
// format, read it back (as any external generator would produce it),
// balance the grid for the measured machine speeds, factor with the
// distributed engine, and save the factors as MatrixMarket again.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"hetgrid"
	"hetgrid/internal/matrix"
)

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "hetgrid-mm")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Produce an input system the way an external tool would: a
	// MatrixMarket file on disk.
	const nb, r = 8, 6
	n := nb * r
	rng := rand.New(rand.NewSource(11))
	a := matrix.RandomWellConditioned(n, rng)
	inPath := filepath.Join(dir, "system.mtx")
	if err := writeFile(inPath, a); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d×%d, MatrixMarket array format)\n", inPath, n, n)

	// 2. Read it back and factor it on the heterogeneous grid.
	loaded, err := readFile(inPath)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.StrategyExact)
	if err != nil {
		log.Fatal(err)
	}
	layout, err := plan.Panel(4, 3, hetgrid.LU)
	if err != nil {
		log.Fatal(err)
	}
	d, err := layout.Distribute(nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	f, stats, err := hetgrid.DistributedFactor(hetgrid.LU, d, loaded, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factored on 4 goroutine workstations: %d messages, %d bytes\n",
		stats.Messages, stats.Bytes)

	// 3. Save the factors and verify the round trip.
	l, u := f.LU()
	outPath := filepath.Join(dir, "factors_u.mtx")
	if err := writeFile(outPath, u); err != nil {
		log.Fatal(err)
	}
	reloaded, err := readFile(outPath)
	if err != nil {
		log.Fatal(err)
	}
	residual := matrix.Sub(matrix.Mul(l, reloaded), loaded).MaxAbs()
	fmt.Printf("reloaded U from %s: max |L·U − A| = %.2e\n", filepath.Base(outPath), residual)
}

func writeFile(path string, m *matrix.Dense) error {
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readFile(path string) (*matrix.Dense, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return matrix.ReadMatrixMarket(f)
}
