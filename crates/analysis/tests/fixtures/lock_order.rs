// Fixture: acquires the sweep records (rank 1) while the span ring (rank 4)
// guard is still live — against the declared order.
fn wrong(&self) {
    let guard = self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let records = self.sweep_records.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    drop(records);
    drop(guard);
}
