//! A [`StorageBackend`] decorator that records one span per storage call
//! the engine makes.  It is handed to `Database::with_store` in traced
//! runs only; every method delegates unchanged, so the engine above and
//! the backend below cannot tell it is there.

use crate::trace::{span, Span};
use critique_storage::{
    KeyInterval, Row, RowId, RowPredicate, ScanView, Snapshot, StorageBackend, StorageError,
    TableName, Timestamp, TxnToken, WriteKind,
};
use std::any::Any;

#[derive(Debug)]
pub struct TracedStore {
    inner: Box<dyn StorageBackend>,
}

impl TracedStore {
    pub fn new(inner: Box<dyn StorageBackend>) -> Self {
        TracedStore { inner }
    }
}

impl StorageBackend for TracedStore {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn create_table(&self, table: &str) {
        self.inner.create_table(table)
    }

    fn tables(&self) -> Vec<TableName> {
        self.inner.tables()
    }

    fn row_ids(&self, table: &str) -> Vec<RowId> {
        self.inner.row_ids(table)
    }

    fn insert(&self, table: &str, writer: TxnToken, row: Row) -> RowId {
        span(Span::StorageInsert, || {
            self.inner.insert(table, writer, row)
        })
    }

    fn update(
        &self,
        table: &str,
        writer: TxnToken,
        id: RowId,
        row: Row,
    ) -> Result<(), StorageError> {
        span(Span::StorageUpdate, || {
            self.inner.update(table, writer, id, row)
        })
    }

    fn delete(&self, table: &str, writer: TxnToken, id: RowId) -> Result<(), StorageError> {
        self.inner.delete(table, writer, id)
    }

    fn get_latest_any(&self, table: &str, id: RowId) -> Option<Row> {
        span(Span::StorageGetLatestAny, || {
            self.inner.get_latest_any(table, id)
        })
    }

    fn get_latest_committed(&self, table: &str, id: RowId) -> Option<Row> {
        span(Span::StorageGetLatestCommitted, || {
            self.inner.get_latest_committed(table, id)
        })
    }

    fn get_committed_as_of(&self, table: &str, id: RowId, ts: Timestamp) -> Option<Row> {
        self.inner.get_committed_as_of(table, id, ts)
    }

    fn get_visible(
        &self,
        table: &str,
        id: RowId,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Option<Row> {
        span(Span::StorageGetVisible, || {
            self.inner.get_visible(table, id, reader, start_ts)
        })
    }

    fn scan_latest_any(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        self.inner.scan_latest_any(predicate)
    }

    fn scan_latest_committed(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        self.inner.scan_latest_committed(predicate)
    }

    fn scan_committed_as_of(&self, predicate: &RowPredicate, ts: Timestamp) -> Vec<(RowId, Row)> {
        self.inner.scan_committed_as_of(predicate, ts)
    }

    fn scan_visible(
        &self,
        predicate: &RowPredicate,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Vec<(RowId, Row)> {
        span(Span::StorageScanVisible, || {
            self.inner.scan_visible(predicate, reader, start_ts)
        })
    }

    fn create_index(&self, table: &str, column: &str) {
        self.inner.create_index(table, column)
    }

    fn indexed_column(&self, table: &str) -> Option<String> {
        self.inner.indexed_column(table)
    }

    fn scan_range(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
        view: ScanView,
    ) -> Vec<(RowId, Row)> {
        span(Span::StorageScanRange, || {
            self.inner.scan_range(table, column, range, view)
        })
    }

    fn writes_of(&self, writer: TxnToken) -> Vec<(TableName, RowId, WriteKind)> {
        span(Span::StorageWritesOf, || self.inner.writes_of(writer))
    }

    fn first_committer_conflict(
        &self,
        writer: TxnToken,
        start_ts: Timestamp,
    ) -> Option<(TableName, RowId)> {
        span(Span::StorageFirstCommitterConflict, || {
            self.inner.first_committer_conflict(writer, start_ts)
        })
    }

    fn has_foreign_uncommitted_on_writes(&self, writer: TxnToken) -> bool {
        self.inner.has_foreign_uncommitted_on_writes(writer)
    }

    fn commit(&self, writer: TxnToken, ts: Timestamp) {
        span(Span::StorageCommit, || self.inner.commit(writer, ts))
    }

    fn flush_commit(&self, writer: TxnToken) {
        span(Span::StorageFlushCommit, || self.inner.flush_commit(writer))
    }

    fn abort(&self, writer: TxnToken) {
        span(Span::StorageAbort, || self.inner.abort(writer))
    }

    fn snapshot(&self, ts: Timestamp) -> Snapshot<'_> {
        self.inner.snapshot(ts)
    }

    fn committed_row_count(&self, table: &str) -> usize {
        self.inner.committed_row_count(table)
    }

    fn version_count(&self) -> usize {
        self.inner.version_count()
    }

    fn as_any(&self) -> &dyn Any {
        // Forward, so stats readers downcast to the concrete backend.
        self.inner.as_any()
    }
}
