package testground

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client talks to a Sync service over HTTP. The launched binaries
// (tinyleo-ctl -sync, tinyleo-sat -sync) use it to publish bound
// addresses and rendezvous at the start barrier.
type Client struct {
	// Base is the sync service URL, e.g. "http://127.0.0.1:40123".
	Base string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
}

// NewClient normalizes a -sync flag value into a Client ("host:port"
// grows an http:// scheme).
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimSuffix(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// SetParam publishes a parameter to the sync service.
func (c *Client) SetParam(name, value string) error {
	resp, err := c.http().Post(c.Base+"/param/"+url.PathEscape(name), "text/plain", strings.NewReader(value))
	if err != nil {
		return fmt.Errorf("testground: set param %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("testground: set param %s: %s", name, resp.Status)
	}
	return nil
}

// Param fetches a parameter; ok is false while it is unpublished.
func (c *Client) Param(name string) (value string, ok bool, err error) {
	resp, err := c.http().Get(c.Base + "/param/" + url.PathEscape(name))
	if err != nil {
		return "", false, fmt.Errorf("testground: get param %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return "", false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("testground: get param %s: %s", name, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return "", false, err
	}
	return string(body), true, nil
}

// WaitParam polls the parameter until it is published or the timeout
// expires. Transport errors keep polling: the service may still be
// coming up when an agent process starts.
func (c *Client) WaitParam(name string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		v, ok, err := c.Param(name)
		if ok {
			return v, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("not published")
			}
			return "", fmt.Errorf("testground: param %q: %v (waited %s)", name, err, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Arrive joins the named barrier, which the runner defined, and blocks
// until every participant has arrived or the timeout expires.
func (c *Client) Arrive(name string, timeout time.Duration) error {
	u := fmt.Sprintf("%s/barrier/%s?timeout_s=%g", c.Base, url.PathEscape(name), timeout.Seconds())
	// The request blocks server-side until release; bound the client a
	// little beyond the server's own timeout.
	cl := *c.http()
	cl.Timeout = timeout + 5*time.Second
	resp, err := cl.Post(u, "text/plain", nil)
	if err != nil {
		return fmt.Errorf("testground: barrier %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("testground: barrier %s: %s: %s", name, resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}
