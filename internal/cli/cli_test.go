package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// exec runs spec over args on a fresh flag set and returns the exit
// status, stdout, stderr and whether the body ran.
func exec(t *testing.T, spec Spec, args []string, body func(Env) error) (status int, stdout, stderr string, ran bool) {
	t.Helper()
	fs := flag.NewFlagSet(spec.Name, flag.ContinueOnError)
	fs.SetOutput(new(bytes.Buffer))
	var out, errOut bytes.Buffer
	status = spec.Exec(fs, args, &out, &errOut, func(env Env) error {
		ran = true
		if body == nil {
			return nil
		}
		return body(env)
	})
	return status, out.String(), errOut.String(), ran
}

func TestVersionStartsNothing(t *testing.T) {
	ring := filepath.Join(t.TempDir(), "ring")
	spec := Spec{Name: "bcetest", Labels: map[string]string{"schema": "7"}, Profiling: Sweeps, Debug: true}
	// An unusable -debug-addr would fail set-up with status 2 if the
	// debug server were started.
	status, stdout, _, ran := exec(t, spec,
		[]string{"-version", "-profile-dir", ring, "-debug-addr", "no-such-host:-1"}, nil)
	if status != 0 {
		t.Fatalf("-version exited %d, want 0", status)
	}
	if ran {
		t.Error("-version ran the body")
	}
	if !regexp.MustCompile(`^bce_build_info\{.*schema="7".*\} 1\n$`).MatchString(stdout) {
		t.Errorf("-version printed %q, want one bce_build_info line", stdout)
	}
	if _, err := os.Stat(ring); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-version started profiling: %s exists (%v)", ring, err)
	}
}

func TestExitStatus(t *testing.T) {
	spec := Spec{Name: "bcetest", Profiling: Process}
	for _, tc := range []struct {
		name   string
		args   []string
		body   func(Env) error
		status int
		ran    bool
		stderr string
	}{
		{"ok", nil, nil, 0, true, ""},
		{"unknown flag", []string{"-no-such-flag"}, nil, 2, false, ""},
		{"unknown log level", []string{"-log-level", "loud"}, nil, 2, false, `bcetest: telemetry: unknown log level "loud"`},
		{"unknown log format", []string{"-log-format", "xml"}, nil, 2, false, `bcetest: telemetry: unknown log format "xml"`},
		{"usage error", nil, func(Env) error { return Usagef("-a needs -b") }, 2, true, "bcetest: -a needs -b\n"},
		{"failed run", nil, func(Env) error { return errors.New("boom") }, 1, true, "bcetest: boom\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, stderr, ran := exec(t, spec, tc.args, tc.body)
			if status != tc.status || ran != tc.ran {
				t.Errorf("status %d, body ran %v; want %d, %v", status, ran, tc.status, tc.ran)
			}
			if !strings.HasPrefix(stderr, tc.stderr) {
				t.Errorf("stderr %q, want prefix %q", stderr, tc.stderr)
			}
		})
	}
}

func TestDebugEndpointServesStandardAndExtraVars(t *testing.T) {
	spec := Spec{
		Name:      "bcetest",
		Profiling: Process,
		Debug:     true,
		Vars:      map[string]func() any{"bce_test_extra": func() any { return 42 }},
	}
	var errOut bytes.Buffer
	fs := flag.NewFlagSet(spec.Name, flag.ContinueOnError)
	status := spec.Exec(fs, []string{"-debug-addr", "127.0.0.1:0"}, new(bytes.Buffer), &errOut, func(env Env) error {
		m := regexp.MustCompile(`url=(http://\S+/debug/)`).FindStringSubmatch(errOut.String())
		if m == nil {
			return errors.New("no debug endpoint url logged")
		}
		resp, err := http.Get(m[1] + "live")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var live map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
			return err
		}
		for _, name := range []string{"bce_runner", "bce_prof", "bce_test_extra"} {
			if _, ok := live[name]; !ok {
				t.Errorf("/debug/live lacks %s: %v", name, live)
			}
		}
		if got := string(live["bce_test_extra"]); got != "42" {
			t.Errorf("bce_test_extra = %s, want 42", got)
		}
		return nil
	})
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut.String())
	}
}
