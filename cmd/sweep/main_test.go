package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the sweep command: with
// SWEEP_TEST_MAIN set it runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepCmd runs the command with args and returns its stderr and exit code.
func sweepCmd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestUnknownNamesListKnownOnes: an unknown workload, engine or family
// exits 1 naming it and listing the registered names, and an invalid
// axis value exits 1 naming it, each under one prefix.
func TestUnknownNamesListKnownOnes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "bfs"}, `sweep: unknown workload "bfs" (have bfstree, broadcast, coloring, gossip, leader, matching, mis)`},
		{[]string{"-engine", "native"}, `sweep: unknown engine "native" (have alg1, beep, congest, tdma)`},
		{[]string{"-family", "cycle"}, `sweep: unknown family "cycle" (have regular, bounded, pg, grid, hypercube, hard, complete, geo)`},
		{[]string{"-family", "grid", "-delta", "0"}, `sweep: family "grid" needs Param ≥ 1, got 0`},
	} {
		stderr, code := sweepCmd(t, append(tc.args, "-noagg")...)
		if code != 1 || strings.TrimSpace(stderr) != tc.want {
			t.Errorf("%v: exit %d, stderr %q; want exit 1, %q", tc.args, code, stderr, tc.want)
		}
	}
}
