//! Offline stand-in for `serde_derive`. Nothing on the serving path
//! serialises through serde (the server has its own JSON and binary
//! codecs), so the derives only have to be accepted, not implemented.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
