package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCLI runs the command with args and returns its exit code, stdout and
// stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// A bad flag value is a usage error: exit 2 before any table runs, with a
// message naming what was wrong.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-size", "quick", "-exp", "table1", "-format", "xml"}, `unknown -format "xml"`},
		{[]string{"-size", "huge", "-exp", "table1"}, `unknown -size "huge"`},
		{[]string{"-size", "quick", "-exp", "bogus"}, `unknown experiment "bogus"`},
		{[]string{"-mode", "serial"}, "flag provided but not defined: -mode"},
		{[]string{"-parallel", "2"}, "flag provided but not defined: -parallel"},
	} {
		code, stdout, stderr := runCLI(tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q, want it to contain %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v: rendered output despite the bad flag:\n%s", tc.args, stdout)
		}
	}
}

// Both accepted formats render the table and exit 0.
func TestFormats(t *testing.T) {
	for format, want := range map[string]string{
		"text": "Table 1",
		"csv":  "# Table 1:",
	} {
		code, stdout, stderr := runCLI("-size", "quick", "-exp", "table1", "-format", format)
		if code != 0 || !strings.Contains(stdout, want) {
			t.Errorf("-format %s: exit %d, stdout %q, stderr %q; want exit 0 and %q", format, code, stdout, stderr, want)
		}
	}
}
