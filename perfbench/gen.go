package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"karousos.dev/karousos/internal/server"
)

// sent is the generator's record of one request. Times are offsets from
// clock0. In an open loop Due is the scheduled send time; in a closed loop
// it equals Sent.
type sent struct {
	Due, Sent, Done time.Duration
	Status          int
	RID             string
	Err             error
}

func (s sent) ok() bool { return s.Err == nil && s.Status == http.StatusOK }

// bodies renders each request as the collector's /invoke body.
func bodies(reqs []server.Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(map[string]any{"input": r.Input})
		if err != nil {
			return nil, fmt.Errorf("encoding request %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// drive posts every body to url over at most conns connections and waits
// for all responses. With rate > 0 it is an open loop: request i is due at
// start + i/rate whatever earlier requests are doing, and a request that
// finds every connection busy waits, its wait counted from when it was due.
// With rate == 0 it is a closed loop: each connection sends its next
// request when the previous one is answered. late holds, per request, how
// far behind its schedule the generator itself handed it to a connection;
// in a closed loop, how long after its connection became free it was sent.
func drive(url string, reqs [][]byte, rate float64, conns int) (res []sent, late []time.Duration) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	res = make([]sent, len(reqs))
	late = make([]time.Duration, len(reqs))
	// Sized to the whole stream so the schedule never blocks on a busy
	// connection: that wait belongs to the request, not the generator.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := now() // when this connection last became free
			for i := range queue {
				res[i] = post(client, url, reqs[i], res[i].Due)
				if rate == 0 {
					late[i] = res[i].Sent - free
				}
				free = res[i].Done
			}
		}()
	}
	start := now()
	for i := range reqs {
		if rate > 0 {
			due := start + time.Duration(float64(i)/rate*float64(time.Second))
			if d := due - now(); d > 0 {
				time.Sleep(d)
			}
			res[i].Due = due
			late[i] = now() - due
		} else {
			res[i].Due = -1 // nothing scheduled: post times it from its send
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res, late
}

func post(client *http.Client, url string, body []byte, due time.Duration) sent {
	s := sent{Sent: now()}
	if due < 0 {
		due = s.Sent
	}
	s.Due = due
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.Err, s.Done = err, now()
		return s
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	s.Done, s.Status = now(), resp.StatusCode
	if err != nil {
		s.Err = err
		return s
	}
	if s.Status == http.StatusOK {
		var out struct {
			RID string `json:"rid"`
		}
		if err := json.Unmarshal(blob, &out); err != nil || out.RID == "" {
			s.Err = fmt.Errorf("response without a RID: %q", blob)
		}
		s.RID = out.RID
	}
	return s
}
