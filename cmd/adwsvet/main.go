// Command adwsvet runs the project's static-analysis suite (internal/lint)
// over the given package patterns and fails the build on any violation of
// the scheduler's concurrency invariants.
//
// Usage:
//
//	adwsvet [packages ...]
//
// With no packages it analyzes ./..., mirroring go vet. It prints one
// diagnostic per line as file:line:col: [analyzer] message. The exit
// status is 0 when the packages are clean, 1 when any diagnostic was
// found, and 2 when the packages cannot be loaded. See docs/LINT.md for
// the analyzers and the //adws: directive grammar.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/parlab/adws/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: adwsvet [packages ...]\n")
	}
	flag.Parse()

	loader, err := lint.NewModuleLoader("")
	if err != nil {
		fmt.Fprintf(os.Stderr, "adwsvet: %v\n", err)
		os.Exit(2)
	}
	u, err := loader.Load("", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adwsvet: %v\n", err)
		os.Exit(2)
	}
	diags := u.Run(nil)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "adwsvet: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
