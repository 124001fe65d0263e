package diskcache

import "time"

// SetRetry adjusts Put's bounded retry policy: attempts is the total
// number of tries (minimum 1), backoff the first inter-try sleep
// (doubled each further try). Tests shrink it to keep retries fast.
func (s *Store) SetRetry(attempts int, backoff time.Duration) {
	if attempts < 1 {
		attempts = 1
	}
	if backoff < 0 {
		backoff = 0
	}
	s.mu.Lock()
	s.retryAttempts = attempts
	s.retryBackoff = backoff
	s.mu.Unlock()
}
