//! Model-store files: a trained deployment on disk, as an `IXHIST01`
//! image of exactly one [`MODEL_STORE_SECTION`] holding the store rows of
//! [`crate::codec`], the rows `SRVT` snapshots and `RPLY` headers embed.
//! Nothing else may surround the rows and they must fill the section, so
//! a file that decodes re-encodes byte-identically. A file that starts
//! with `{` is the retired JSON form, refused by name.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use ix_core::{CoreError, ModelStore};

use crate::codec;
use crate::file::{section_in, HistoryFileError, Reader, SectionImage};

/// Tag of the one section of a model-store file.
pub const MODEL_STORE_SECTION: [u8; 4] = *b"STOR";

/// The model-store file image of `store`.
pub fn model_store_bytes(store: &ModelStore) -> Vec<u8> {
    let rows = codec::store_rows(store);
    let mut image = SectionImage::new(MODEL_STORE_SECTION, rows.encoded_len());
    rows.write(image.writer());
    image.finish()
}

/// Decodes a model-store file image written by [`model_store_bytes`].
///
/// # Errors
///
/// [`HistoryFileError::Format`] when the bytes are the retired JSON form,
/// are not an `IXHIST01` image holding exactly one
/// [`MODEL_STORE_SECTION`], or hold store rows that
/// [`codec::read_store_rows`] refuses or that leave payload bytes unread.
pub fn model_store_from_bytes(bytes: &[u8]) -> Result<ModelStore, HistoryFileError> {
    let refuse = |msg: &str| Err(HistoryFileError::Format(msg.to_string()));
    if bytes.first() == Some(&b'{') {
        return refuse("the model-store file is in the retired JSON form");
    }
    let Some(payload) = section_in(bytes, MODEL_STORE_SECTION)? else {
        return refuse("no STOR section: not a model-store file");
    };
    // The empty-store header and one section frame are all that may
    // surround the payload.
    if bytes.len() != SectionImage::PAYLOAD_AT + payload.len() {
        return refuse("a model-store file holds its STOR section and nothing else");
    }
    let mut r = Reader::new(payload);
    let store = codec::read_store_rows(&mut r)?;
    if r.remaining() != 0 {
        return refuse("the store rows leave bytes of the STOR section unread");
    }
    Ok(store)
}

/// Writes `store` to `path` as a model-store file: one attempt, which
/// [`ix_core::Engine::store_op`] retries.
///
/// # Errors
///
/// [`CoreError::Io`] carrying the path and the underlying
/// [`std::io::Error`].
pub fn save_model_store(store: &ModelStore, path: &Path) -> Result<(), CoreError> {
    fs::write(path, model_store_bytes(store)).map_err(|source| CoreError::Io {
        op: "save model store",
        path: path.to_path_buf(),
        source: Arc::new(source),
    })
}

/// Reads a model-store file: one attempt, which
/// [`ix_core::Engine::store_op`] retries.
///
/// # Errors
///
/// [`CoreError::Io`] when the file cannot be read, and
/// [`CoreError::Serialization`] when its bytes do not decode; the
/// [`HistoryFileError`] is the [`std::error::Error::source`].
pub fn load_model_store(path: &Path) -> Result<ModelStore, CoreError> {
    let bytes = fs::read(path).map_err(|source| CoreError::Io {
        op: "load model store",
        path: path.to_path_buf(),
        source: Arc::new(source),
    })?;
    model_store_from_bytes(&bytes).map_err(|e| CoreError::Serialization {
        op: "model store",
        source: Arc::new(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryStore;

    #[test]
    fn an_empty_store_is_a_one_section_image() {
        let bytes = model_store_bytes(&ModelStore::new());
        let image = HistoryStore::builder()
            .section(MODEL_STORE_SECTION, vec![0; 12])
            .build()
            .to_bytes();
        assert_eq!(bytes, image);
        assert_eq!(
            model_store_from_bytes(&bytes).expect("intact"),
            ModelStore::new()
        );
        let (_, warnings) = HistoryStore::from_bytes_with_warnings(&bytes).expect("container");
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn load_failures_carry_kind_and_source() {
        use std::error::Error as _;
        let dir = std::env::temp_dir().join(format!("ix-model-store-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let missing = load_model_store(&dir.join("missing.ixh")).unwrap_err();
        assert_eq!(missing.kind(), ix_core::ErrorKind::Io);
        assert!(missing.source().is_some());

        let path = dir.join("cut.ixh");
        let bytes = model_store_bytes(&ModelStore::new());
        fs::write(&path, &bytes[..bytes.len() - 1]).expect("write");
        let cut = load_model_store(&path).unwrap_err();
        assert_eq!(cut.kind(), ix_core::ErrorKind::Serialization);
        assert_eq!(cut.code().as_u16(), 10);
        assert!(cut.source().is_some());
        fs::remove_dir_all(&dir).ok();
    }
}
